/**
 * @file
 * Boot latency reporting shared by all boot pipelines.
 *
 * A BootReport is the one recorder of a boot's stages. A stage is an
 * RAII scope: it opens a child span at the report's stage mark (the
 * instant the previous stage was booked) and, when it closes, books the
 * elapsed virtual time under its phase, tags the span with that phase,
 * ends the span and moves the mark forward. The per-stage totals the
 * benches consume and the stage spans of the trace are therefore one
 * record: consecutive stage spans abut and sum to the boot latency.
 */

#ifndef CATALYZER_TRACE_BOOT_REPORT_H
#define CATALYZER_TRACE_BOOT_REPORT_H

#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "trace/trace.h"

namespace catalyzer::trace {

/**
 * The paper's Fig. 4 split of a boot: sandbox initialization versus
 * application initialization.
 */
enum class BootPhase { SandboxInit, AppInit };

/** "sandbox-init" / "app-init": the value of a stage span's phase. */
const char *bootPhaseName(BootPhase phase);

/** One booked stage. */
struct BootStage
{
    std::string name;
    sim::SimTime time;
    BootPhase phase;
};

/** Per-stage latencies of one boot, in order. */
class BootReport
{
  public:
    /**
     * An open stage (neither copyable nor movable). Callees nest their
     * spans under it through context(); closing it books the stage.
     */
    class Stage
    {
      public:
        ~Stage();

        /** Attach an attribute to the stage's span. */
        void attr(Name key, Name value) { span_.attr(key, value); }
        void attr(Name key, std::int64_t value) { span_.attr(key, value); }
        template <RuntimeString S>
        void
        attr(Name key, const S &value)
        {
            span_.attr(key, value);
        }

        /** Context for callees: parent = this stage's span. */
        TraceContext context() const { return span_.context(); }

      private:
        friend class BootReport;
        Stage(BootReport &report, TraceContext trace, Name name,
              BootPhase phase);

        BootReport &report_;
        ScopedSpan span_;
        Name name_;
        BootPhase phase_;
    };

    /**
     * Set the stage mark to @p clock's current time: the next stage
     * starts here. Arming again before the first stage leaves the time
     * in between (offline work) out of the boot.
     */
    void start(const sim::VirtualClock &clock);

    /** Open a sandbox-initialization stage under @p trace's parent. */
    [[nodiscard]] Stage
    sandboxStage(TraceContext trace, Name name)
    {
        return Stage(*this, trace, name, BootPhase::SandboxInit);
    }

    /** Open an application-initialization stage. */
    [[nodiscard]] Stage
    appStage(TraceContext trace, Name name)
    {
        return Stage(*this, trace, name, BootPhase::AppInit);
    }

    sim::SimTime sandboxInit() const { return sandbox_; }
    sim::SimTime appInit() const { return app_; }
    sim::SimTime total() const { return sandbox_ + app_; }

    const std::vector<BootStage> &stages() const { return stages_; }

  private:
    /** Book [mark, now] as @p name and move the mark to now. */
    void book(Name name, BootPhase phase);

    const sim::VirtualClock *clock_ = nullptr;
    sim::SimTime mark_;
    std::vector<BootStage> stages_;
    sim::SimTime sandbox_;
    sim::SimTime app_;
};

} // namespace catalyzer::trace

#endif // CATALYZER_TRACE_BOOT_REPORT_H
