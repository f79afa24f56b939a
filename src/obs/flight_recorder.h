/**
 * @file
 * Black-box flight recorder: always-on postmortem capture.
 *
 * Production incidents are diagnosed from what was already being
 * recorded when things went wrong, not from a re-run. The machine's
 * always-on tracer ring (sandbox::Machine) keeps the recent spans; the
 * FlightRecorder turns a triggering event — an injected fault firing at
 * a boot-path site, or the platform degrading a boot one tier — into a
 * bounded Incident holding the trigger (site, detail, distributed trace
 * id), the counter deltas since the previous incident, and the tail of
 * the span ring. Incidents are queryable in memory and, when a dump
 * directory is configured (or $CATALYZER_FLIGHT_DIR is set), each one
 * is also written out as a standalone JSON postmortem artifact.
 */

#ifndef CATALYZER_OBS_FLIGHT_RECORDER_H
#define CATALYZER_OBS_FLIGHT_RECORDER_H

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/stats.h"
#include "trace/trace.h"

namespace catalyzer::obs {

/** One captured incident. */
struct Incident
{
    /** Monotonic per-recorder sequence number (from 1). */
    std::uint64_t seq = 0;
    /** Trigger class: "fault-injected" or "tier-fallback". */
    std::string kind;
    /** Fault site name ("remote_peer_death", ...). */
    std::string site;
    /** Free-form trigger detail (e.g. "sfork -> warm", error text). */
    std::string detail;
    /** Distributed trace id of the request that hit it; 0 if none. */
    trace::TraceId traceId = 0;
    /** Machine's virtual time at capture. */
    sim::SimTime at;
    /** Counters that changed since the previous incident (name, delta). */
    std::vector<std::pair<std::string, std::int64_t>> counterDeltas;
    /** Tail of the machine's span ring at capture time. */
    std::vector<trace::Span> recentSpans;
};

/**
 * The per-machine recorder. References (not owns) the machine's tracer,
 * clock and stat registry; capture is cheap enough to stay always-on
 * because it only runs when an incident actually fires.
 */
class FlightRecorder
{
  public:
    /** Most recent incidents kept in memory. */
    static constexpr std::size_t kMaxIncidents = 64;
    /** Span-ring tail copied into each incident. */
    static constexpr std::size_t kSpanTail = 128;

    FlightRecorder(std::uint32_t machine, const trace::Tracer &tracer,
                   const sim::VirtualClock &clock,
                   const sim::StatRegistry &stats);

    /**
     * Capture one incident now. Returns its sequence number. If a dump
     * directory is configured the incident is also written to
     * <dir>/flightrec-m<machine>-<seq>.json (directory created on
     * first use; a write failure is counted, never thrown).
     */
    std::uint64_t record(const std::string &kind, const std::string &site,
                         const std::string &detail,
                         trace::TraceId trace_id);

    /** Auto-dump directory; empty disables dumping. */
    void setDumpDirectory(std::string dir);

    /** In-memory incidents, oldest first (bounded by kMaxIncidents). */
    const std::deque<Incident> &incidents() const { return incidents_; }

    /** Incidents captured over the recorder's lifetime. */
    std::uint64_t incidentCount() const { return seq_; }

    /** Incidents that aged out of the in-memory ring. */
    std::uint64_t droppedCount() const { return dropped_; }

    /** Postmortem files successfully written. */
    std::uint64_t dumpsWritten() const { return dumps_written_; }

    /** Write one incident as a JSON object. */
    static void writeIncidentJson(std::ostream &os,
                                  const Incident &incident,
                                  std::uint32_t machine);

  private:
    std::uint32_t machine_;
    const trace::Tracer &tracer_;
    const sim::VirtualClock &clock_;
    const sim::StatRegistry &stats_;
    std::string dump_dir_;
    std::deque<Incident> incidents_;
    /** Counter values at the previous incident (delta baseline). */
    std::map<std::string, std::int64_t> last_counters_;
    std::uint64_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t dumps_written_ = 0;
};

} // namespace catalyzer::obs

#endif // CATALYZER_OBS_FLIGHT_RECORDER_H
