#include "trace/boot_report.h"

#include <utility>

#include "sim/logging.h"

namespace catalyzer::trace {

namespace {

Name
phaseName(BootPhase phase)
{
    return phase == BootPhase::SandboxInit ? Name("sandbox-init")
                                           : Name("app-init");
}

} // namespace

const char *
bootPhaseName(BootPhase phase)
{
    return phaseName(phase).c_str();
}

void
BootReport::start(const sim::VirtualClock &clock)
{
    clock_ = &clock;
    mark_ = clock.now();
}

void
BootReport::book(Name name, BootPhase phase)
{
    const sim::SimTime now = clock_->now();
    if (now < mark_)
        sim::panic("BootReport: clock moved behind the stage mark "
                   "(%lld ns < %lld ns)",
                   static_cast<long long>(now.toNs()),
                   static_cast<long long>(mark_.toNs()));
    const sim::SimTime t = now - mark_;
    mark_ = now;
    (phase == BootPhase::SandboxInit ? sandbox_ : app_) += t;
    stages_.push_back({name.c_str(), t, phase});
}

BootReport::Stage::Stage(BootReport &report, TraceContext trace,
                         Name name, BootPhase phase)
    : report_(report), span_(trace, name, report.mark_), name_(name),
      phase_(phase)
{
    if (report.clock_ == nullptr)
        sim::panic("BootReport: stage %s opened before start()",
                   name_.c_str());
}

BootReport::Stage::~Stage()
{
    report_.book(name_, phase_);
    span_.attr("phase", phaseName(phase_));
    span_.finish();
}

} // namespace catalyzer::trace
