/**
 * @file
 * Benchmark program for the aapm simulator: runs one named workload in a
 * closed loop with one caller for a fixed host-time budget, checks the
 * simulated outputs, and prints its metrics as one JSON line.
 *
 *   aapm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR] [--tiny] [--inject-check-failure]
 *   aapm_perfbench --workload NAME --seed N --setup-only [--out-dir DIR]
 *                  [--tiny]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   suite_sweep          26 SPEC proxies x {PM 17.5/14.5/11.5 W,
 *                        PS 0.8/0.4} x 3 sensor seeds, SweepRunner.
 *   cluster_faults_1024  1024 supervised-PM cores, tree allocator,
 *                        correlated domain faults, binary capture.
 *   serve_bursty_1024    1024 race-to-idle cores serving bursty MMPP
 *                        traffic, JSQ dispatch, uniform allocator.
 *
 * Each layer is measured from outside, by timing calls into public
 * functions or through decorators of the public Governor,
 * PowerBudgetAllocator and ClusterStepHook interfaces. With --trace 0
 * every repetition is untraced and the end-to-end metrics are
 * reported. With --trace 1 untraced and traced repetitions alternate:
 * the traced ones record spans and give the per-layer metrics, and
 * comparing the two gives the tracing overhead. Every repetition must
 * reproduce the first one's digest of deterministic simulated outputs;
 * a failed check makes the process exit 1.
 *
 * --setup-only times one set-up and prints it; the main run starts
 * itself that way for its repeated set-up timings.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapm.hh"
#include "cluster/budget_tree.hh"
#include "cluster/supervisor.hh"
#include "fault/domain_plan.hh"

using namespace aapm;

namespace
{

// ---------------------------------------------------------------------
// Host clocks and small statistics.

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Linear-interpolation quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over the bit patterns of the deterministic outputs. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------
// Spans.

enum Layer : uint8_t
{
    kStep,
    kDecide,
    kDecideCState,
    kInterval,
    kAllocate,
    kHook,
    kLayerCount
};

const char *const kLayerNames[kLayerCount] = {
    "platform.step", "mgmt.decide",      "mgmt.decide_cstate",
    "cluster.interval", "cluster.allocate", "serve.hook"};

/**
 * In-memory span recorder for the traced repetitions. Every span is
 * aggregated per layer (count, total and self time, where self time is
 * the span's duration minus its children's); the first `keep` spans are
 * also kept whole (name, start, end, parent, interval id) and written
 * out when the benchmark ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        uint64_t interval;
        int64_t startNs;
        int64_t endNs;
        int32_t parent;
        uint8_t layer;
    };

    struct Aggregate
    {
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    struct Closed
    {
        int64_t durNs;
        int64_t selfNs;
    };

    explicit SpanRecorder(size_t keep) : keep_(keep) { kept_.reserve(keep); }

    void setInterval(uint64_t id) { interval_ = id; }

    void open(Layer layer) { openAt(layer, nowNs()); }

    void
    openAt(Layer layer, int64_t t)
    {
        int32_t slot = -1;
        if (kept_.size() < keep_) {
            slot = static_cast<int32_t>(kept_.size());
            kept_.push_back({interval_, t, t,
                             stack_.empty() ? -1 : stack_.back().slot,
                             layer});
        }
        stack_.push_back({layer, t, 0, slot});
    }

    Closed close() { return closeAt(nowNs()); }

    Closed
    closeAt(int64_t t)
    {
        const Open o = stack_.back();
        stack_.pop_back();
        const int64_t dur = t - o.startNs;
        Aggregate &a = agg_[o.layer];
        ++a.count;
        a.totalNs += dur;
        a.selfNs += dur - o.childNs;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        if (o.slot >= 0)
            kept_[static_cast<size_t>(o.slot)].endNs = t;
        ++spans_;
        return {dur, dur - o.childNs};
    }

    /** Drop the innermost open span without aggregating it (the
     *  interval a cluster run opens after its last step). */
    void
    abandon()
    {
        const Open o = stack_.back();
        stack_.pop_back();
        if (o.slot >= 0 && static_cast<size_t>(o.slot) + 1 == kept_.size())
            kept_.pop_back();
    }

    const Aggregate &agg(Layer layer) const { return agg_[layer]; }
    uint64_t spans() const { return spans_; }

    /** Write the kept spans as TSV; false when the file cannot be
     *  written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const int64_t t0 = kept_.empty() ? 0 : kept_.front().startNs;
        out << "# spans kept " << kept_.size() << " of " << spans_
            << "\nid\tname\tinterval\tstart_ns\tend_ns\tparent\n";
        for (size_t i = 0; i < kept_.size(); ++i) {
            const Span &s = kept_[i];
            out << i << '\t' << kLayerNames[s.layer] << '\t' << s.interval
                << '\t' << s.startNs - t0 << '\t' << s.endNs - t0 << '\t'
                << s.parent << '\n';
        }
        return static_cast<bool>(out);
    }

  private:
    struct Open
    {
        uint8_t layer;
        int64_t startNs;
        int64_t childNs;
        int32_t slot;
    };

    size_t keep_;
    std::vector<Span> kept_;
    std::vector<Open> stack_;
    Aggregate agg_[kLayerCount];
    uint64_t interval_ = 0;
    uint64_t spans_ = 0;
};

// ---------------------------------------------------------------------
// Timing decorators of the public extension interfaces. Each forwards
// every call unchanged, so a traced run must reproduce the untraced
// simulated outputs exactly (the digest check enforces it).

class TimedGovernor : public Governor
{
  public:
    TimedGovernor(std::unique_ptr<Governor> inner, SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
        insight_ = inner_->insight();
    }

    const char *name() const override { return inner_->name(); }

    void configureCounters(Pmu &pmu) override
    {
        inner_->configureCounters(pmu);
    }

    size_t
    decide(const MonitorSample &sample, size_t current) override
    {
        rec_.open(kDecide);
        const size_t next = inner_->decide(sample, current);
        rec_.close();
        insight_ = inner_->insight();
        return next;
    }

    size_t
    decideCState(const MonitorSample &sample, size_t current) override
    {
        rec_.open(kDecideCState);
        const size_t next = inner_->decideCState(sample, current);
        rec_.close();
        insight_ = inner_->insight();
        return next;
    }

    void
    reset() override
    {
        inner_->reset();
        insight_ = inner_->insight();
    }

    void
    setPowerLimit(double watts) override
    {
        inner_->setPowerLimit(watts);
        insight_ = inner_->insight();
    }

    void
    setPerformanceFloor(double floor) override
    {
        inner_->setPerformanceFloor(floor);
        insight_ = inner_->insight();
    }

    void
    exportTelemetry(RecoveryTelemetry &out) const override
    {
        inner_->exportTelemetry(out);
    }

    void
    setInsightWanted(bool wanted) override
    {
        Governor::setInsightWanted(wanted);
        inner_->setInsightWanted(wanted);
        insight_ = inner_->insight();
    }

  private:
    std::unique_ptr<Governor> inner_;
    SpanRecorder &rec_;
};

GovernorFactory
timedFactory(GovernorFactory inner, SpanRecorder &rec)
{
    return [inner = std::move(inner), &rec]() -> std::unique_ptr<Governor> {
        return std::make_unique<TimedGovernor>(inner(), rec);
    };
}

class TimedAllocator : public PowerBudgetAllocator
{
  public:
    TimedAllocator(const PowerBudgetAllocator &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    const char *name() const override { return inner_.name(); }
    bool wantsInsight() const override { return inner_.wantsInsight(); }

    void
    allocate(double budgetW, const std::vector<CoreDemand> &cores,
             std::vector<double> &limitsW) const override
    {
        rec_.open(kAllocate);
        inner_.allocate(budgetW, cores, limitsW);
        rec_.close();
    }

  private:
    const PowerBudgetAllocator &inner_;
    SpanRecorder &rec_;
};

/** Per-interval host timing of a lockstep cluster run. */
struct IntervalStats
{
    std::vector<double> intervalNs;
    /** Summed self time of the interval spans. */
    int64_t selfNs = 0;
    /** Core-steps executed in the timed intervals. */
    uint64_t coreSteps = 0;
};

/**
 * Step-hook decorator: one "cluster.interval" span runs from the end
 * of one hook call to the end of the next, so it holds that round's
 * allocation, the lockstep step of every core (with their decide()
 * spans) and the hook itself. `inner` may be null (a cluster that has
 * no hook of its own).
 */
class TimedStepHook : public ClusterStepHook
{
  public:
    TimedStepHook(ClusterStepHook *inner, SpanRecorder &rec,
                  IntervalStats &stats)
        : inner_(inner), rec_(rec), stats_(stats)
    {
    }

    void
    begin(const ClusterStepView &view) override
    {
        if (inner_ != nullptr)
            inner_->begin(view);
        ranCores_ = view.coreCount();
        rec_.setInterval(interval_);
        rec_.open(kInterval);
    }

    void
    interval(Tick now, const ClusterStepView &view) override
    {
        int64_t end = nowNs();
        if (inner_ != nullptr) {
            rec_.openAt(kHook, end);
            inner_->interval(now, view);
            end = nowNs();
            rec_.closeAt(end);
        }
        const SpanRecorder::Closed c = rec_.closeAt(end);
        stats_.intervalNs.push_back(static_cast<double>(c.durNs));
        stats_.selfNs += c.selfNs;
        stats_.coreSteps += ranCores_;
        ranCores_ = 0;
        for (size_t i = 0; i < view.coreCount(); ++i)
            ranCores_ += view.active(i) ? 1 : 0;
        rec_.setInterval(++interval_);
        rec_.openAt(kInterval, end);
    }

    /** Close out a finished run: drop the interval opened after the
     *  final step. */
    void endRun() { rec_.abandon(); }

  private:
    ClusterStepHook *inner_;
    SpanRecorder &rec_;
    IntervalStats &stats_;
    uint64_t interval_ = 0;
    size_t ranCores_ = 0;
};

/**
 * Step-hook decorator of untraced calls: reads the host clock after
 * every lockstep interval, so calls doing identical work can be compared
 * interval by interval. `inner` may be null.
 */
class StampHook : public ClusterStepHook
{
  public:
    StampHook(ClusterStepHook *inner, std::vector<int64_t> &stamps)
        : inner_(inner), stamps_(stamps)
    {
    }

    void
    begin(const ClusterStepView &view) override
    {
        if (inner_ != nullptr)
            inner_->begin(view);
        stamps_.push_back(nowNs());
    }

    void
    interval(Tick now, const ClusterStepView &view) override
    {
        if (inner_ != nullptr)
            inner_->interval(now, view);
        stamps_.push_back(nowNs());
    }

  private:
    ClusterStepHook *inner_;
    std::vector<int64_t> &stamps_;
};

// ---------------------------------------------------------------------
// Deterministic simulated outputs of one call, and the output checks.

struct SimOutputs
{
    uint64_t digest = 0;
    /** Control intervals stepped, summed over cores / runs. */
    uint64_t coreIntervals = 0;
    double energyJ = 0.0;
    uint64_t instructions = 0;
    double overBudgetFrac = 0.0;
    uint64_t quarantineEntries = 0;
    uint64_t faultsSeen = 0;
    uint64_t recoveryActions = 0;
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t dropped = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double sloViolFrac = 0.0;
    uint64_t wakeups = 0;
    double sleepCoreS = 0.0;
    uint64_t retainedSamples = 0;
    uint64_t traceBytes = 0;
    /** Host CPU of threads other than the caller (trace flush). */
    double flushCpuS = 0.0;
    std::vector<std::string> failures;

    void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        failures.emplace_back(buf);
    }
};

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/** Control intervals a run stepped: its simulated time over the sample
 *  interval, the last one possibly partial. */
uint64_t
runIntervals(const RunResult &r)
{
    static const double dt =
        ticksToSeconds(PlatformConfig().sampleInterval);
    return static_cast<uint64_t>(std::ceil(r.seconds / dt - 1e-6));
}

/** Fold one core/run result into the digest and the totals, checking
 *  that its energy and time are finite and positive. */
void
addRun(const RunResult &r, size_t index, SimOutputs &out, Digest &d)
{
    d.add(r.seconds);
    d.add(r.instructions);
    d.add(r.trueEnergyJ);
    d.add(r.measuredEnergyJ);
    d.add(r.finalTempC);
    d.add(static_cast<uint64_t>(r.finished));
    d.add(r.recovery.faultsSeen());
    d.add(r.recovery.recoveryActions());
    d.add(r.idle.wakeups);
    d.add(r.idle.sleepSeconds);
    d.add(static_cast<uint64_t>(r.trace.samples().size()));
    if (!finitePositive(r.trueEnergyJ) || !finitePositive(r.seconds))
        out.fail("run %zu: energy %g J / time %g s not finite and "
                 "positive", index, r.trueEnergyJ, r.seconds);
    out.coreIntervals += runIntervals(r);
    out.instructions += r.instructions;
    out.faultsSeen += r.recovery.faultsSeen();
    out.recoveryActions += r.recovery.recoveryActions();
    out.wakeups += r.idle.wakeups;
    out.sleepCoreS += r.idle.sleepSeconds;
    out.retainedSamples += r.trace.samples().size();
}

/** Cluster-level outputs; checks energy conservation across cores. */
void
addCluster(const ClusterResult &c, SimOutputs &out, Digest &d)
{
    double coreSum = 0.0;
    for (size_t i = 0; i < c.cores.size(); ++i) {
        addRun(c.cores[i], i, out, d);
        coreSum += c.cores[i].trueEnergyJ;
    }
    d.add(c.trueEnergyJ);
    d.add(c.fractionOverBudgetTrue);
    d.add(c.intervals);
    d.add(c.resilience.quarantineEntries);
    d.add(c.resilience.quarantineIntervals);
    d.add(c.resilience.readmissions);
    d.add(c.resilience.shedIntervals);
    if (!(std::abs(c.trueEnergyJ - coreSum) <= 1e-9 * std::abs(coreSum)))
        out.fail("cluster energy %.17g J != per-core sum %.17g J",
                 c.trueEnergyJ, coreSum);
    if (!finitePositive(c.trueEnergyJ))
        out.fail("cluster energy %g J not finite and positive",
                 c.trueEnergyJ);
    out.energyJ = c.trueEnergyJ;
    out.overBudgetFrac = c.fractionOverBudgetTrue;
    out.quarantineEntries = c.resilience.quarantineEntries;
    out.retainedSamples += c.trace.samples().size();
}

// ---------------------------------------------------------------------
// Workloads.

struct SetupTimes
{
    double trainS = 0.0;
    double buildS = 0.0;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /**
     * Train the models and build the workload's inputs (timed as
     * set-up). Cold: AAPM_MODEL_CACHE is not consulted.
     */
    virtual SetupTimes setup() = 0;

    /** Build what the next call needs (untimed), before every call. */
    virtual void prepare(SpanRecorder *rec) { (void)rec; }

    /** The timed simulation call; `rec` is null when untraced. */
    virtual SimOutputs call(SpanRecorder *rec) = 0;

    /** Release what the call left behind (untimed). */
    virtual void cleanup(SimOutputs &out) { (void)out; }

    /** Per-interval cluster timing of the traced calls (empty for
     *  workloads without a lockstep cluster). */
    IntervalStats intervals;

    /** Host clock readings inside the current untraced call (empty for
     *  workloads without a lockstep cluster). */
    std::vector<int64_t> stamps;
};

/** Every paper PM limit and PS floor over the SPEC proxy suite, three
 *  sensor-noise seeds, stepped serially through SweepRunner. */
class SuiteSweep : public BenchWorkload
{
  public:
    SuiteSweep(uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

    SetupTimes
    setup() override
    {
        SetupTimes t;
        const int64_t t0 = nowNs();
        const TrainedModels models = trainModels(config_);
        const int64_t t1 = nowNs();
        const PowerEstimator power = models.powerEstimator(config_.pstates);
        const PerfEstimator perf = models.perfEstimator();
        suite_ = specSuite(config_.core, tiny_ ? 0.3 : 4.0);
        if (tiny_)
            suite_.resize(4);
        RunOptions options;
        options.recordTrace = false;
        specs_.clear();
        for (uint64_t k = 0; k < 3; ++k) {
            const uint64_t sensorSeed = splitmix64(seed_ * 3 + k) | 1;
            const auto add = [&](const GovernorFactory &factory) {
                for (const Workload &w : suite_)
                    specs_.push_back({&w, factory, 0, sensorSeed, options});
            };
            for (double limit : {17.5, 14.5, 11.5}) {
                add([power, limit] {
                    return std::make_unique<PerformanceMaximizer>(
                        power, PmConfig{.powerLimitW = limit});
                });
            }
            for (double floor : {0.8, 0.4}) {
                const PStateTable table = config_.pstates;
                add([table, perf, floor] {
                    return std::make_unique<PowerSave>(table, perf,
                                                       PsConfig{floor});
                });
            }
        }
        runner_ = std::make_unique<SweepRunner>(config_, 1);
        t.trainS = static_cast<double>(t1 - t0) * 1e-9;
        t.buildS = static_cast<double>(nowNs() - t1) * 1e-9;
        return t;
    }

    SimOutputs
    call(SpanRecorder *rec) override
    {
        std::vector<RunResult> runs = rec == nullptr
            ? runner_->run(specs_)
            : tracedRuns(*rec);
        SimOutputs out;
        Digest d;
        for (size_t i = 0; i < runs.size(); ++i) {
            addRun(runs[i], i, out, d);
            out.energyJ += runs[i].trueEnergyJ;
        }
        out.digest = d.value();
        return out;
    }

  private:
    /** SweepRunner's serial path (one private Platform per run, the
     *  spec's sensor seed), stepped one interval at a time so every
     *  step is a span. Platform::run is that same loop. */
    std::vector<RunResult>
    tracedRuns(SpanRecorder &rec)
    {
        std::vector<RunResult> runs;
        runs.reserve(specs_.size());
        for (const RunSpec &spec : specs_) {
            PlatformConfig config = config_;
            config.sensor.seed = spec.sensorSeed;
            Platform platform(config);
            TimedGovernor governor(spec.governor(), rec);
            auto run = platform.beginRun(*spec.workload, governor,
                                         spec.options);
            for (bool more = true; more;) {
                rec.setInterval(step_++);
                rec.open(kStep);
                more = run->step();
                rec.close();
            }
            runs.push_back(run->finish());
        }
        return runs;
    }

    uint64_t seed_;
    bool tiny_;
    PlatformConfig config_;
    std::vector<Workload> suite_;
    std::vector<RunSpec> specs_;
    std::unique_ptr<SweepRunner> runner_;
    uint64_t step_ = 0;
};

/**
 * The domain-fault flagship: supervised PM cores under a budget tree,
 * correlated faults derived from the seed, ClusterSupervisor on, and
 * every core capturing binary interval traces through one shared flush
 * thread.
 *
 * The cluster, its sinks and tracers are reused across calls: creating
 * 1024 trace files costs about as much host time as a call, and a
 * ClusterPlatform boots every core cold on each run anyway. Each call
 * appends one header…footer segment per file; the files are deleted and
 * rebuilt, between calls, once they hold kMaxTraceBytes. They are built
 * by prepare(), outside the timed set-up too: creating 1024 files on a
 * shared virtual disk took anywhere from 0.2 to 0.8 s, which would
 * swamp the set-up time of the simulator's own work.
 */
class ClusterFaults : public BenchWorkload
{
  public:
    /** Trace files go to `traceDir`, which this instance owns. */
    ClusterFaults(uint64_t seed, bool tiny, std::string traceDir)
        : seed_(seed), cores_(tiny ? 64 : 1024),
          topology_(tiny ? "4x4x4" : "4x16x16"),
          traceDir_(std::move(traceDir))
    {
    }

    ~ClusterFaults() override { release(); }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        const int64_t t0 = nowNs();
        const TrainedModels models = trainModels(PlatformConfig());
        const int64_t t1 = nowNs();
        const PlatformConfig config;
        power_ = std::make_shared<PowerEstimator>(
            models.powerEstimator(config.pstates));
        perf_ = std::make_shared<PerfEstimator>(models.perfEstimator());

        // Alternating compute- and memory-bound phases, ~2 simulated
        // seconds per core so every fault window (the last ends at
        // 1.45 s) plays out while all cores still step. Even cores
        // start compute-bound, odd cores memory-bound.
        Phase compute;
        compute.instructions = 1'100'000'000;
        compute.baseCpi = 1.0;
        compute.memPerInstr = 0.25;
        Phase memory;
        memory.instructions = 800'000'000;
        memory.baseCpi = 1.1;
        memory.memPerInstr = 0.45;
        workloads_.clear();
        workloads_.emplace_back("cluster-compute-first");
        workloads_.emplace_back("cluster-memory-first");
        for (int k = 0; k < 2; ++k) {
            workloads_[0].add(compute);
            workloads_[0].add(memory);
            workloads_[1].add(memory);
            workloads_[1].add(compute);
        }

        const double limitW = 11.5;
        const double budgetW = limitW * static_cast<double>(cores_);
        const DomainFaultPlan plan = DomainFaultPlan::parse(
            "node[3]@0.3:sensor-brownout:40;"
            "node[12]@0.5:pmu-dropout:40;"
            "socket[9]@0.8:dvfs-stuck:30;"
            "cluster@0.9:budget-drop:20:0.25;"
            "rack[2]@1.2:budget-drop:25:0.4");
        // A stochastic background on every core (the base plan) gives
        // the domain seed something to decorrelate: it seeds each core's
        // fault stream. Its intensity is the lowest mixed-fault row of
        // BENCH_faults.json, measured there on the same governor (PM at
        // 11.5 W).
        const DerivedDomainFaults derived = deriveDomainFaults(
            plan, FaultPlan::mixed(0.02), parseTopology(topology_), cores_,
            seed_);
        subtreeDrops_.clear();
        for (const BudgetDropEvent &d : derived.drops)
            if (d.coreBegin != 0 || d.coreEnd != cores_)
                subtreeDrops_.push_back(d);

        // The factory wraps each governor in a timing decorator while
        // the call is traced (rec_ set), and hands it out bare
        // otherwise.
        const auto power = power_;
        const GovernorFactory factory =
            [this, power, limitW]() -> std::unique_ptr<Governor> {
            std::unique_ptr<Governor> g =
                std::make_unique<GovernorSupervisor>(
                    std::make_unique<PerformanceMaximizer>(
                        *power, PmConfig{.powerLimitW = limitW}),
                    SupervisorConfig(), power.get());
            if (rec_ != nullptr)
                g = std::make_unique<TimedGovernor>(std::move(g), *rec_);
            return g;
        };
        base_ = ClusterConfig();
        for (size_t i = 0; i < cores_; ++i) {
            ClusterCoreConfig core;
            core.platform = config;
            core.workload = &workloads_[i % 2];
            core.governor = factory;
            // The derived plans carry their per-core seeds.
            core.options.faultPlan = derived.perCore[i];
            core.powerModel = power_.get();
            core.perfModel = perf_.get();
            base_.cores.push_back(std::move(core));
        }
        base_.budgetW = budgetW;
        base_.budgetCommands = budgetDropCommands(
            derived.drops, budgetW, config.sampleInterval, cores_);
        allocator_ = makeAllocator("tree:" + topology_ +
                                   ":uniform,demand,greedy");
        t.trainS = static_cast<double>(t1 - t0) * 1e-9;
        t.buildS = static_cast<double>(nowNs() - t1) * 1e-9;
        return t;
    }

    void
    prepare(SpanRecorder *rec) override
    {
        if (!cluster_)
            build();
        rec_ = rec;
        hook_.reset();
        timedAllocator_.reset();
        if (rec != nullptr) {
            hook_ = std::make_unique<TimedStepHook>(nullptr, *rec,
                                                    intervals);
            timedAllocator_ =
                std::make_unique<TimedAllocator>(*allocator_, *rec);
            cluster_->setStepHook(hook_.get());
        } else {
            cluster_->setStepHook(&stampHook_);
        }
    }

    SimOutputs
    call(SpanRecorder *rec) override
    {
        const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
        const double thr0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        PowerBudgetAllocator &alloc = rec != nullptr
            ? static_cast<PowerBudgetAllocator &>(*timedAllocator_)
            : *allocator_;
        const ClusterResult r = cluster_->run(alloc, nullptr);
        for (auto &sink : sinks_)
            sink->sync();
        if (hook_)
            hook_->endRun();
        SimOutputs out;
        out.flushCpuS = std::max(
            0.0, (cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0) -
                     (cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - thr0));
        Digest d;
        addCluster(r, out, d);
        out.digest = d.value();
        return out;
    }

    void
    cleanup(SimOutputs &out) override
    {
        uint64_t total = 0;
        size_t grew = 0;
        for (size_t i = 0; i < cores_; ++i) {
            std::error_code ec;
            const uint64_t size = std::filesystem::file_size(tracePath(i), ec);
            if (ec)
                continue;   // counted as not grown
            grew += size > fileBytes_[i] ? 1 : 0;
            total += size - std::min(size, fileBytes_[i]);
            fileBytes_[i] = size;
        }
        if (grew != cores_)
            out.fail("%zu of %zu trace files did not grow", cores_ - grew,
                     cores_);
        out.traceBytes = total;
        traceBytes_ += total;
        if (traceBytes_ >= kMaxTraceBytes)
            release();
    }

  private:
    static constexpr uint64_t kMaxTraceBytes = 256ull << 20;

    std::string
    tracePath(size_t core) const
    {
        return traceDir_ + "/core" + std::to_string(core) + ".bin";
    }

    /** Fresh trace files, their sinks and tracers, and the cluster
     *  whose cores write to them. */
    void
    build()
    {
        std::filesystem::create_directories(traceDir_);
        flush_ = std::make_unique<TraceFlushThread>();
        ClusterConfig cc = base_;
        for (size_t i = 0; i < cores_; ++i) {
            sinks_.push_back(std::make_unique<BinaryTraceSink>(
                tracePath(i), flush_.get()));
            tracers_.push_back(
                std::make_unique<IntervalTracer>(*sinks_.back(), 1));
            cc.cores[i].options.tracer = tracers_.back().get();
        }
        fileBytes_.assign(cores_, 0);
        traceBytes_ = 0;
        supervisor_ = std::make_unique<ClusterSupervisor>(
            ClusterSupervisorConfig(), subtreeDrops_);
        cc.supervisor = supervisor_.get();
        cluster_ = std::make_unique<ClusterPlatform>(std::move(cc));
    }

    /** Tear down in dependency order — the cluster (holds tracer
     *  pointers), tracers, sinks, then the flush thread they share —
     *  and delete the trace files. */
    void
    release()
    {
        cluster_.reset();
        supervisor_.reset();
        tracers_.clear();
        sinks_.clear();
        flush_.reset();
        std::error_code ec;
        std::filesystem::remove_all(traceDir_, ec);
    }

    uint64_t seed_;
    size_t cores_;
    std::string topology_;
    std::string traceDir_;
    std::shared_ptr<PowerEstimator> power_;
    std::shared_ptr<PerfEstimator> perf_;
    std::vector<Workload> workloads_;
    std::vector<BudgetDropEvent> subtreeDrops_;
    ClusterConfig base_;
    std::unique_ptr<PowerBudgetAllocator> allocator_;
    /** Set while the coming call is traced. */
    SpanRecorder *rec_ = nullptr;
    std::unique_ptr<TraceFlushThread> flush_;
    std::vector<std::unique_ptr<BinaryTraceSink>> sinks_;
    std::vector<std::unique_ptr<IntervalTracer>> tracers_;
    /** Trace file sizes after the previous call, and their growth
     *  since the files were created. */
    std::vector<uint64_t> fileBytes_;
    uint64_t traceBytes_ = 0;
    std::unique_ptr<ClusterSupervisor> supervisor_;
    std::unique_ptr<TimedStepHook> hook_;
    std::unique_ptr<TimedAllocator> timedAllocator_;
    StampHook stampHook_{nullptr, stamps};
    std::unique_ptr<ClusterPlatform> cluster_;
};

/**
 * The request path: bursty MMPP open-loop traffic (open only in
 * simulated time) dispatched JSQ onto race-to-idle cores with a
 * two-deep c-state ladder, uniform budget split, nothing captured.
 * runServing() is replicated here (menu, cluster, scheduler, hook) so
 * the cluster and scheduler are built outside the timed call and the
 * scheduler can sit behind a timing decorator.
 */
class ServeBursty : public BenchWorkload
{
  public:
    ServeBursty(uint64_t seed, bool tiny)
        : seed_(seed), cores_(tiny ? 64 : 1024), horizonS_(tiny ? 0.2 : 8.0)
    {
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        const int64_t t0 = nowNs();
        const TrainedModels models = trainModels(PlatformConfig());
        const int64_t t1 = nowNs();
        PlatformConfig config;
        config.cstates = CStateLadder::parse("C1:0.4W:2us;C6:0.05W:150us",
                                             "benchmark ladder");
        power_ = std::make_shared<PowerEstimator>(
            models.powerEstimator(config.pstates));
        perf_ = std::make_shared<PerfEstimator>(models.perfEstimator());
        const double limitW = 7.0;
        const auto power = power_;
        const CStateLadder ladder = config.cstates;
        const GovernorFactory factory = [power, ladder, limitW] {
            return std::make_unique<RaceToIdleGovernor>(
                *power, ladder, PmConfig{.powerLimitW = limitW});
        };
        serving_ = ServingConfig();
        serving_.traffic.process = ArrivalProcess::Bursty;
        serving_.traffic.rateRps = 40.0 * static_cast<double>(cores_);
        serving_.traffic.seed = seed_;
        serving_.horizonS = horizonS_;
        serving_.sloS = 0.05;
        serving_.queueCap = 64;
        serving_.dispatch = DispatchPolicy::JoinShortestQueue;
        serving_.mix = defaultRequestMix();
        menu_ = std::make_unique<Workload>(
            servingMenu(serving_.mix, config.core));
        base_ = ClusterConfig();
        for (size_t i = 0; i < cores_; ++i) {
            ClusterCoreConfig core;
            core.platform = config;
            core.workload = menu_.get();
            core.governor = factory;
            core.powerModel = power_.get();
            core.perfModel = perf_.get();
            base_.cores.push_back(std::move(core));
        }
        base_.budgetW = limitW * static_cast<double>(cores_);
        // The cluster and scheduler construction belongs to set-up; the
        // first call runs on them.
        prepare(nullptr);
        fresh_ = true;
        t.trainS = static_cast<double>(t1 - t0) * 1e-9;
        t.buildS = static_cast<double>(nowNs() - t1) * 1e-9;
        return t;
    }

    void
    prepare(SpanRecorder *rec) override
    {
        if (fresh_ && rec == nullptr)
            return;
        cluster_.reset();
        scheduler_.reset();
        hook_.reset();
        stampHook_.reset();
        timedAllocator_.reset();
        ClusterConfig cc = base_;
        if (rec != nullptr)
            for (ClusterCoreConfig &core : cc.cores)
                core.governor = timedFactory(core.governor, *rec);
        cluster_ = std::make_unique<ClusterPlatform>(std::move(cc));
        scheduler_ =
            std::make_unique<RequestScheduler>(*cluster_, *menu_, serving_);
        if (rec != nullptr) {
            hook_ = std::make_unique<TimedStepHook>(scheduler_.get(), *rec,
                                                    intervals);
            cluster_->setStepHook(hook_.get());
            timedAllocator_ =
                std::make_unique<TimedAllocator>(uniform_, *rec);
        } else {
            stampHook_ =
                std::make_unique<StampHook>(scheduler_.get(), stamps);
            cluster_->setStepHook(stampHook_.get());
        }
    }

    SimOutputs
    call(SpanRecorder *rec) override
    {
        PowerBudgetAllocator &alloc = rec != nullptr
            ? static_cast<PowerBudgetAllocator &>(*timedAllocator_)
            : uniform_;
        fresh_ = false;
        ClusterResult cr = cluster_->run(alloc, nullptr);
        if (hook_)
            hook_->endRun();
        const ServingResult s = scheduler_->finish(std::move(cr));
        SimOutputs out;
        Digest d;
        addCluster(s.cluster, out, d);
        d.add(s.offered);
        d.add(s.completed);
        d.add(s.dropped);
        d.add(s.unfinished);
        d.add(s.p50S);
        d.add(s.p99S);
        d.add(s.p999S);
        d.add(s.sloViolationFrac);
        for (const RequestRecord &q : s.requests) {
            d.add(q.arrival);
            d.add(q.complete);
            d.add(static_cast<uint64_t>(q.core));
            d.add(static_cast<uint64_t>(q.dropped));
        }
        out.digest = d.value();
        out.offered = s.offered;
        out.completed = s.completed;
        out.dropped = s.dropped;
        out.p50Ms = s.p50S * 1e3;
        out.p99Ms = s.p99S * 1e3;
        out.sloViolFrac = s.sloViolationFrac;
        if (s.offered != s.completed + s.dropped + s.unfinished)
            out.fail("requests not conserved: offered %" PRIu64
                     " != completed %" PRIu64 " + dropped %" PRIu64
                     " + unfinished %" PRIu64,
                     s.offered, s.completed, s.dropped, s.unfinished);
        if (s.completed == 0)
            out.fail("no request completed");
        for (double latency : s.latencies.data())
            if (!finitePositive(latency)) {
                out.fail("request latency %g s not finite and positive",
                         latency);
                break;
            }
        if (s.completed > 0 &&
            (!finitePositive(s.p50S) || !finitePositive(s.p99S)))
            out.fail("latency percentiles p50 %g / p99 %g not finite and "
                     "positive", s.p50S, s.p99S);
        return out;
    }

  private:
    uint64_t seed_;
    size_t cores_;
    double horizonS_;
    std::shared_ptr<PowerEstimator> power_;
    std::shared_ptr<PerfEstimator> perf_;
    ServingConfig serving_;
    std::unique_ptr<Workload> menu_;
    ClusterConfig base_;
    UniformAllocator uniform_;
    std::unique_ptr<ClusterPlatform> cluster_;
    std::unique_ptr<RequestScheduler> scheduler_;
    std::unique_ptr<TimedStepHook> hook_;
    std::unique_ptr<StampHook> stampHook_;
    std::unique_ptr<TimedAllocator> timedAllocator_;
    /** The cluster and scheduler are built but have not run yet. */
    bool fresh_ = false;
};

// ---------------------------------------------------------------------
// Main loop.

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool injectFailure = false;
    bool setupOnly = false;
    std::string outDir = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "aapm_perfbench: %s\nusage: aapm_perfbench --workload "
                 "{suite_sweep|cluster_faults_1024|serve_bursty_1024} "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--tiny] [--inject-check-failure] [--setup-only]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = value();
                haveWorkload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--out-dir") {
                o.outDir = value();
            } else if (a == "--tiny") {
                o.tiny = true;
            } else if (a == "--inject-check-failure") {
                o.injectFailure = true;
            } else if (a == "--setup-only") {
                o.setupOnly = true;
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const Options &o)
{
    if (o.workload == "suite_sweep")
        return std::make_unique<SuiteSweep>(o.seed, o.tiny);
    // A --setup-only child gets a trace directory of its own: an
    // instance deletes its directory when it is destroyed.
    if (o.workload == "cluster_faults_1024")
        return std::make_unique<ClusterFaults>(
            o.seed, o.tiny,
            o.outDir + (o.setupOnly ? "/traces-setup" : "/traces"));
    if (o.workload == "serve_bursty_1024")
        return std::make_unique<ServeBursty>(o.seed, o.tiny);
    usage(("unknown workload " + o.workload).c_str());
}

/** One timed set-up: host seconds in total, and its parts. */
struct TimedSetup
{
    double totalS = 0.0;
    SetupTimes parts;
};

TimedSetup
timeSetup(BenchWorkload &w)
{
    TimedSetup t;
    const int64_t t0 = nowNs();
    t.parts = w.setup();
    t.totalS = static_cast<double>(nowNs() - t0) * 1e-9;
    return t;
}

/**
 * Time one more set-up in a child process of this program
 * (--setup-only), so this process's resident set, and thus
 * peak_rss_mb, only ever holds the one workload instance it measures.
 * Exits 2 when the child fails.
 */
TimedSetup
childSetup(const Options &o)
{
    std::vector<std::string> args = {
        "aapm_perfbench", "--workload", o.workload, "--seed",
        std::to_string(o.seed), "--out-dir", o.outDir, "--setup-only"};
    if (o.tiny)
        args.emplace_back("--tiny");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("aapm_perfbench: pipe");
        std::exit(2);
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    if (rc == 0) {
        char buf[256];
        for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
            text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    TimedSetup t;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 ||
        std::sscanf(text.c_str(), "setup %lf %lf %lf", &t.totalS,
                    &t.parts.trainS, &t.parts.buildS) != 3) {
        std::fprintf(stderr, "aapm_perfbench: set-up child failed\n");
        std::exit(2);
    }
    return t;
}

uint64_t
counter(const char *name)
{
    return MetricRegistry::global().counterValue(name);
}

/** Host and platform-counter measurements of one call. */
struct CallRecord
{
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    uint64_t coreIntervals = 0;
    uint64_t fastIntervals = 0;
    uint64_t chunkedIntervals = 0;
    uint64_t tracedRecords = 0;
    /** Untraced calls: host time of each piece of the call between
     *  the workload's clock readings (one piece when it takes none). */
    std::vector<int64_t> pieceNs;
    SimOutputs out;
};

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::filesystem::create_directories(opt.outDir);
    if (opt.setupOnly) {
        const TimedSetup t = timeSetup(*makeWorkload(opt));
        std::printf("setup %.9f %.9f %.9f\n", t.totalS, t.parts.trainS,
                    t.parts.buildS);
        return 0;
    }

#ifdef NDEBUG
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("host: hardware_concurrency %u, compiler %s, build %s%s\n",
                std::thread::hardware_concurrency(), AAPM_BENCH_COMPILER,
                AAPM_BENCH_BUILD_TYPE,
                optimized ? "" : " (NOT OPTIMIZED: timings are not "
                                 "representative)");
    std::printf("note: simulated outputs come from a model that is not "
                "validated against hardware; no error figure exists\n");

    // Set-up is timed several times and the median reported. The first
    // set-up builds the instance the calls run on; the others run in
    // child processes spread over the run, between calls, so a shift in
    // host speed during the run is sampled rather than missed.
    const size_t setups = 5;
    std::vector<double> setupS, trainS, buildS;
    const auto record = [&](const TimedSetup &t) {
        setupS.push_back(t.totalS);
        trainS.push_back(t.parts.trainS);
        buildS.push_back(t.parts.buildS);
    };
    const std::unique_ptr<BenchWorkload> wl = makeWorkload(opt);
    record(timeSetup(*wl));

    SpanRecorder rec(opt.trace ? 1u << 18 : 0);
    std::vector<CallRecord> calls;
    double timedUntraced = 0.0, timedTraced = 0.0;
    size_t untraced = 0, traced = 0;
    const size_t minCalls = 3;
    const int64_t loopStart = nowNs();
    while (true) {
        const bool doTrace = opt.trace && (calls.size() % 2 == 1);
        if (!calls.empty()) {
            const double loopS =
                static_cast<double>(nowNs() - loopStart) * 1e-9;
            if (setupS.size() < setups &&
                loopS >= opt.seconds * static_cast<double>(setupS.size()) /
                        static_cast<double>(setups))
                record(childSetup(opt));
        }
        wl->prepare(doTrace ? &rec : nullptr);
        CallRecord c;
        c.traced = doTrace;
        const uint64_t fast0 = counter("platform.fast_intervals");
        const uint64_t chunk0 = counter("platform.chunked_intervals");
        const uint64_t sleep0 = counter("idle.sleep_intervals");
        const uint64_t rec0 = counter("platform.traced_records");
        wl->stamps.clear();
        const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
        const int64_t t0 = nowNs();
        c.out = wl->call(doTrace ? &rec : nullptr);
        const int64_t t1 = nowNs();
        c.wallS = static_cast<double>(t1 - t0) * 1e-9;
        c.cpuS = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
        if (!doTrace) {
            int64_t from = t0;
            for (int64_t stamp : wl->stamps) {
                c.pieceNs.push_back(stamp - from);
                from = stamp;
            }
            c.pieceNs.push_back(t1 - from);
        }
        wl->cleanup(c.out);
        c.fastIntervals = counter("platform.fast_intervals") - fast0;
        c.chunkedIntervals = counter("platform.chunked_intervals") - chunk0;
        c.coreIntervals = c.out.coreIntervals;
        c.tracedRecords = counter("platform.traced_records") - rec0;
        const uint64_t counted = c.fastIntervals + c.chunkedIntervals +
            (counter("idle.sleep_intervals") - sleep0);
        if (c.coreIntervals == 0)
            c.out.fail("no core-interval was simulated");
        if (counted != c.coreIntervals)
            c.out.fail("platform counters report %" PRIu64
                       " core-intervals, the simulated times %" PRIu64,
                       counted, c.coreIntervals);
        if (opt.injectFailure && calls.size() == 1)
            c.out.digest ^= 1;   // self-test: a forced check failure
        if (!doTrace && !calls.empty() &&
            c.pieceNs.size() != calls.front().pieceNs.size())
            c.out.fail("%zu timed pieces, the first call had %zu",
                       c.pieceNs.size(), calls.front().pieceNs.size());
        if (!calls.empty() && c.out.digest != calls.front().out.digest)
            c.out.fail("digest %016" PRIx64 " differs from the first "
                       "call's %016" PRIx64 "%s",
                       c.out.digest, calls.front().out.digest,
                       doTrace ? " (traced call)" : "");
        for (const std::string &f : c.out.failures)
            std::fprintf(stderr, "check failed (call %zu): %s\n",
                         calls.size(), f.c_str());
        (doTrace ? timedTraced : timedUntraced) += c.wallS;
        (doTrace ? traced : untraced) += 1;
        calls.push_back(std::move(c));
        const double loopS = static_cast<double>(nowNs() - loopStart) * 1e-9;
        const bool enough = untraced >= minCalls &&
            (!opt.trace || traced >= minCalls);
        if (enough && (timedUntraced + timedTraced >= opt.seconds ||
                       loopS >= 2.0 * opt.seconds))
            break;
    }
    while (setupS.size() < setups)
        record(childSetup(opt));

    size_t failed = 0;
    for (const CallRecord &c : calls)
        failed += c.out.failures.empty() ? 0 : 1;
    const CallRecord &first = calls.front();
    const SimOutputs &sim = first.out;
    std::printf("digest: %016" PRIx64 "\n", sim.digest);
    std::printf("calls: %zu untraced (%.3f s timed), %zu traced (%.3f s "
                "timed), %" PRIu64 " core-intervals per call\n",
                untraced, timedUntraced, traced, timedTraced,
                first.coreIntervals);

    std::vector<double> rate, cpuShare, tracedRate, reqRate, flushCpu;
    std::vector<int64_t> bestPieceNs = first.pieceNs;
    for (const CallRecord &c : calls) {
        const double r = static_cast<double>(c.coreIntervals) / c.wallS;
        if (c.traced) {
            tracedRate.push_back(r);
            continue;
        }
        rate.push_back(r);
        cpuShare.push_back(c.cpuS / c.wallS);
        for (size_t i = 0;
             i < std::min(bestPieceNs.size(), c.pieceNs.size()); ++i)
            bestPieceNs[i] = std::min(bestPieceNs[i], c.pieceNs[i]);
        reqRate.push_back(static_cast<double>(c.out.completed) / c.wallS);
        flushCpu.push_back(c.out.flushCpuS);
    }

    // Other tenants of a shared host only ever slow a call down, and
    // their load comes and goes in spells of milliseconds to minutes
    // that can cover most of a run, so the median call of one run can
    // land in either state. Every untraced call does identical work, so
    // the least host time seen for each piece of it (a lockstep interval
    // of the 1024-core workloads, the whole call of suite_sweep), summed
    // over the pieces, is the best estimate of the program's own cost,
    // and repeats across runs far better; the end-to-end metrics report
    // it. CPU time per host second does not depend on the host's speed,
    // so CPU time per core-interval is that best time times the median
    // share, which keeps a background thread's work in it.
    int64_t bestNs = 0;
    for (int64_t ns : bestPieceNs)
        bestNs += ns;
    const double coreIntervals = static_cast<double>(first.coreIntervals);
    const double rateBest =
        coreIntervals / (static_cast<double>(bestNs) * 1e-9);
    const double cpuNsBest =
        static_cast<double>(bestNs) * median(cpuShare) / coreIntervals;
    std::printf("core_intervals_per_s over %zu untraced calls: best "
                "pieces %.6g, fastest call %.6g, median call %.6g, slower "
                "quartile %.6g\n",
                rate.size(), rateBest,
                *std::max_element(rate.begin(), rate.end()), median(rate),
                quantile(rate, 0.25));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setupS), "s"},
            {"core_intervals_per_s", rateBest, "1/s"},
            {"cpu_ns_per_core_interval", cpuNsBest, "ns"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        const auto mean = [](int64_t total, uint64_t n) {
            return n > 0 ? static_cast<double>(total) /
                    static_cast<double>(n)
                         : 0.0;
        };
        const auto &step = rec.agg(kStep);
        const auto &decide = rec.agg(kDecide);
        const auto &cstate = rec.agg(kDecideCState);
        const auto &interval = rec.agg(kInterval);
        const auto &alloc = rec.agg(kAllocate);
        const auto &hook = rec.agg(kHook);
        const IntervalStats &is = wl->intervals;
        const double nIntervals = static_cast<double>(is.intervalNs.size());
        const double frac = static_cast<double>(first.fastIntervals) /
            static_cast<double>(std::max<uint64_t>(
                1, first.fastIntervals + first.chunkedIntervals));
        const double overhead = 1.0 - median(tracedRate) / median(rate);
        const auto perInterval = [&](int64_t ns) {
            return nIntervals > 0 ? static_cast<double>(ns) / nIntervals : 0;
        };
        const auto share = [&](int64_t ns) {
            return interval.totalNs > 0
                ? static_cast<double>(ns) /
                    static_cast<double>(interval.totalNs)
                : 0.0;
        };
        metrics = {
            {"models.train_s", median(trainS), "s"},
            {"setup.build_s", median(buildS), "s"},
            {"platform.step_ns", mean(step.totalNs, step.count), "ns"},
            {"platform.self_ns", mean(step.selfNs, step.count), "ns"},
            {"platform.fast_interval_frac", frac, "fraction"},
            {"mgmt.decide_ns", mean(decide.totalNs, decide.count), "ns"},
            {"mgmt.decide_calls",
             static_cast<double>(decide.count) /
                 static_cast<double>(traced),
             "count"},
            {"mgmt.decide_cstate_ns", mean(cstate.totalNs, cstate.count),
             "ns"},
            {"cluster.interval_p50_us", quantile(is.intervalNs, 0.5) / 1e3,
             "us"},
            {"cluster.interval_p99_us", quantile(is.intervalNs, 0.99) / 1e3,
             "us"},
            {"cluster.allocate_us", perInterval(alloc.totalNs) / 1e3, "us"},
            {"cluster.allocate_frac", share(alloc.totalNs), "fraction"},
            {"cluster.step_self_ns_per_core",
             mean(is.selfNs, is.coreSteps), "ns"},
            {"cluster.retained_samples",
             static_cast<double>(sim.retainedSamples), "count"},
            {"serve.hook_us", perInterval(hook.totalNs) / 1e3, "us"},
            {"serve.hook_frac", share(hook.totalNs), "fraction"},
            {"serve.requests_per_s", median(reqRate), "1/s"},
            {"obs.trace_records", static_cast<double>(first.tracedRecords),
             "count"},
            {"obs.trace_bytes", static_cast<double>(sim.traceBytes),
             "bytes"},
            {"obs.flush_cpu_s", median(flushCpu), "s"},
            {"sim.energy_j", sim.energyJ, "sim_J"},
            {"sim.instructions", static_cast<double>(sim.instructions),
             "count"},
            {"cluster.sim_over_budget_frac", sim.overBudgetFrac,
             "fraction"},
            {"cluster.quarantine_entries",
             static_cast<double>(sim.quarantineEntries), "count"},
            {"fault.faults_seen", static_cast<double>(sim.faultsSeen),
             "count"},
            {"fault.recovery_actions",
             static_cast<double>(sim.recoveryActions), "count"},
            {"serve.offered", static_cast<double>(sim.offered), "count"},
            {"serve.completed", static_cast<double>(sim.completed),
             "count"},
            {"serve.dropped", static_cast<double>(sim.dropped), "count"},
            {"serve.sim_p50_ms", sim.p50Ms, "sim_ms"},
            {"serve.sim_p99_ms", sim.p99Ms, "sim_ms"},
            {"serve.sim_slo_viol_frac", sim.sloViolFrac, "fraction"},
            {"idle.wakeups", static_cast<double>(sim.wakeups), "count"},
            {"idle.sleep_core_s", sim.sleepCoreS, "sim_s"},
            {"bench.trace_overhead_frac", overhead, "fraction"},
            {"host.optimized_build", optimized ? 1.0 : 0.0, "flag"},
        };

        // Per-layer self-time table over the traced calls.
        std::printf("layer self time over %zu traced calls "
                    "(bench.trace_overhead_frac %.4f):\n",
                    traced, overhead);
        std::printf("  %-20s %12s %12s %12s\n", "layer", "spans",
                    "self_ms", "self_share");
        int64_t selfTotal = 0;
        for (int l = 0; l < kLayerCount; ++l)
            selfTotal += rec.agg(static_cast<Layer>(l)).selfNs;
        for (int l = 0; l < kLayerCount; ++l) {
            const auto &a = rec.agg(static_cast<Layer>(l));
            if (a.count == 0)
                continue;
            std::printf("  %-20s %12" PRIu64 " %12.3f %12.4f\n",
                        kLayerNames[l], a.count,
                        static_cast<double>(a.selfNs) * 1e-6,
                        selfTotal > 0 ? static_cast<double>(a.selfNs) /
                                static_cast<double>(selfTotal)
                                      : 0.0);
        }
        const std::string spanPath = opt.outDir + "/spans-" + opt.workload +
            "-seed" + std::to_string(opt.seed) + ".tsv";
        if (rec.write(spanPath))
            std::printf("spans: %" PRIu64 " recorded, written to %s\n",
                        rec.spans(), spanPath.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", spanPath.c_str());
    }

    printJson(failed == 0, calls.size(), failed, metrics);
    return failed == 0 ? 0 : 1;
}
