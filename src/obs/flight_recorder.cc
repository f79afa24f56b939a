#include "obs/flight_recorder.h"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "sim/json.h"

namespace catalyzer::obs {

FlightRecorder::FlightRecorder(std::uint32_t machine,
                               const trace::Tracer &tracer,
                               const sim::VirtualClock &clock,
                               const sim::StatRegistry &stats)
    : machine_(machine), tracer_(tracer), clock_(clock), stats_(stats)
{
}

void
FlightRecorder::setDumpDirectory(std::string dir)
{
    dump_dir_ = std::move(dir);
}

std::uint64_t
FlightRecorder::record(const std::string &kind, const std::string &site,
                       const std::string &detail, trace::TraceId trace_id)
{
    Incident incident;
    incident.seq = ++seq_;
    incident.kind = kind;
    incident.site = site;
    incident.detail = detail;
    incident.traceId = trace_id;
    incident.at = clock_.now();

    // Counter deltas against the previous incident (the first incident
    // baselines against recorder creation, i.e. full counter values).
    for (const auto &[name, value] : stats_.all()) {
        auto it = last_counters_.find(name);
        const std::int64_t prev =
            it == last_counters_.end() ? 0 : it->second;
        if (value != prev)
            incident.counterDeltas.emplace_back(name, value - prev);
    }
    last_counters_ = stats_.all();

    incident.recentSpans = tracer_.recent(kSpanTail);

    if (!dump_dir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dump_dir_, ec);
        const std::string path = dump_dir_ + "/flightrec-m" +
                                 std::to_string(machine_) + "-" +
                                 std::to_string(incident.seq) + ".json";
        std::ofstream out(path);
        if (out) {
            writeIncidentJson(out, incident, machine_);
            ++dumps_written_;
        }
    }

    incidents_.push_back(std::move(incident));
    while (incidents_.size() > kMaxIncidents) {
        incidents_.pop_front();
        ++dropped_;
    }
    return seq_;
}

void
FlightRecorder::writeIncidentJson(std::ostream &os,
                                  const Incident &incident,
                                  std::uint32_t machine)
{
    os << "{\n  \"machine\": " << machine
       << ",\n  \"seq\": " << incident.seq << ",\n  \"kind\": \""
       << sim::jsonEscape(incident.kind) << "\",\n  \"site\": \""
       << sim::jsonEscape(incident.site) << "\",\n  \"detail\": \""
       << sim::jsonEscape(incident.detail) << "\",\n  \"trace_id\": \""
       << incident.traceId << "\",\n  \"at_ms\": ";
    sim::writeJsonNumber(os, incident.at.toMs());
    os << ",\n  \"counter_deltas\": {";
    bool first = true;
    for (const auto &[name, delta] : incident.counterDeltas) {
        os << (first ? "\n" : ",\n") << "    \"" << sim::jsonEscape(name)
           << "\": " << delta;
        first = false;
    }
    os << "\n  },\n  \"recent_spans\": [";
    first = true;
    for (const trace::Span &span : incident.recentSpans) {
        os << (first ? "\n" : ",\n") << "    {\"id\": " << span.id
           << ", \"parent\": " << span.parent << ", \"trace_id\": \""
           << span.traceId << "\", \"name\": \""
           << sim::jsonEscape(span.name) << "\", \"start_ms\": ";
        sim::writeJsonNumber(os, span.start.toMs());
        os << ", \"duration_ms\": ";
        sim::writeJsonNumber(os, span.duration().toMs());
        os << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

} // namespace catalyzer::obs
