/**
 * @file
 * Shared pieces of the repository benchmark: the span recorder that
 * times each call into a simulator layer, the run context that executes
 * and checks cells, the simulated-output digest, and the metric list a
 * workload reports.
 *
 * A *cell* is one call into the simulator whose output is checked (one
 * harness::run* call, or one codec/analysis step). A *round* is one
 * execution of a workload's set-up or of its whole cell list; wall time
 * is measured per round, and per-layer host times are summed per round
 * from the spans.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds since @p start on the steady clock. */
double secondsSince(Clock::time_point start);

/** Median of @p v (0 when empty); v is taken by value and sorted. */
double median(std::vector<double> v);

/** Quartile @p q (1 or 3) of @p v, as Python's statistics.quantiles
 *  (method "exclusive", n=4) computes it; needs v.size() >= 2. */
double quartile(std::vector<double> v, int q);

/** One recorded span: a call into a simulator layer. */
struct SpanRecord
{
    std::string name;
    std::uint64_t startNs = 0; ///< since the recorder was created
    std::uint64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
    int round = -1;  ///< round the span belongs to
};

/**
 * In-memory span recorder. Spans are recorded only while enabled, kept
 * in memory, and written as JSON once the benchmark ends.
 */
class Tracer
{
  public:
    Tracer();

    void setEnabled(bool on) { enabled_ = on; }

    /** Opens a round (a set-up repetition or a workload repetition). */
    int beginRound(const std::string &kind);
    /** Round kind of round @p r ("setup" / "rep"). */
    const std::string &roundKind(int r) const { return rounds_[r]; }

    /** Starts a span; returns its index (or -1 when disabled). */
    int begin(const std::string &name);
    /** Ends span @p idx (no-op for -1). */
    void end(int idx);

    /**
     * Per round of @p kind that recorded any span, the summed duration
     * in seconds of every span named @p name; the median over those
     * rounds. 0 when no such span was recorded.
     */
    double medianRoundSeconds(const std::string &kind,
                              const std::string &name) const;

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Writes every span as a JSON array to @p path. */
    void write(const std::string &path) const;

  private:
    std::uint64_t nowNs() const;

    Clock::time_point origin_;
    bool enabled_ = false;
    int round_ = -1;
    std::vector<std::string> rounds_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** RAII span around one call. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name)
        : tracer_(tracer), idx_(tracer.begin(name))
    {
    }
    ~Span() { tracer_.end(idx_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int idx_;
};

/** FNV-1a 64 over the simulated fields of one run's output: final
 *  tick, ops, every SystemStats::forEach counter, every per-OpKind
 *  latency histogram, and the open-loop accounting. Host fields are
 *  excluded. */
std::uint64_t digestOf(const syncron::harness::RunOutput &out);

/** Folds @p value into digest @p h (FNV-1a over its bytes). */
std::uint64_t digestMix(std::uint64_t h, std::uint64_t value);

/** FNV-1a offset basis. */
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/** Named failure a benchmark run plants on purpose (self-check). */
enum class Plant
{
    None,
    WrongCount,   ///< first cell's expected op count is off by one
    CorruptTrace, ///< the written trace file loses its last bytes
};

/** One failed cell, as reported. */
struct Failure
{
    std::string key;
    int round = -1;
    std::string error;
};

/**
 * Executes and checks cells. A cell fails when it throws, when its
 * check returns an error, or when its digest differs from the digest
 * the same cell produced in an earlier round of this invocation.
 */
class RunContext
{
  public:
    RunContext(Tracer &tracer, std::uint64_t seed, Plant plant)
        : tracer(tracer), seed(seed), plant(plant)
    {
    }

    Tracer &tracer;
    const std::uint64_t seed;
    const Plant plant;

    /** Starts round @p r; cells recorded from now on belong to it. */
    void setRound(int r) { round_ = r; }

    /**
     * Runs @p fn inside a span named @p span, checks its output with
     * @p check (empty string = pass), and records the cell under
     * @p key. Returns the output (default-constructed on a throw).
     */
    syncron::harness::RunOutput
    cell(const std::string &key, const std::string &span,
         const std::function<syncron::harness::RunOutput()> &fn,
         const std::function<std::string(
             const syncron::harness::RunOutput &)> &check);

    /**
     * Runs a non-simulation step (codec round trip, analysis) inside a
     * span named @p span. @p fn returns an error (empty = pass) and
     * sets the step's digest.
     */
    void step(const std::string &key, const std::string &span,
              const std::function<std::string(std::uint64_t &digest)> &fn);

    /**
     * Expected count with the planted off-by-one applied to the first
     * expectation of the invocation when Plant::WrongCount is set.
     */
    std::uint64_t expect(std::uint64_t count);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first kKeptFailures failures, for the report. */
    const std::vector<Failure> &failures() const { return failures_; }

    /** Digest over every cell of the first round, in cell order. */
    std::uint64_t digest() const { return digest_; }

  private:
    static constexpr std::size_t kKeptFailures = 20;

    void record(const std::string &key, std::string error,
                std::uint64_t digest);

    int round_ = -1;
    int firstRound_ = -1;
    bool planted_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t digest_ = kDigestSeed;
    /// Per cell key: the round that first ran it and its digest there.
    /// Sized by the cell list, not by the number of rounds, so peak
    /// memory does not depend on how many rounds fit the budget.
    std::map<std::string, std::pair<int, std::uint64_t>> firstDigest_;
    std::vector<Failure> failures_;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list; set() replaces an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** Value of @p name; 0 when it was never set. */
    double get(const std::string &name) const;
    const std::vector<Metric> &all() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/** One paper claim and the value this workload reproduces for it. */
struct Claim
{
    std::string name;  ///< fidelity.<name>
    double paper = 0.0;
    double reproduced = 0.0;
    std::string unit;  ///< "x" (ratio) or "%" (gap)
    std::string note;  ///< where the comparison differs from the paper
};

/**
 * A workload of the benchmark. setup() builds inputs and is timed as
 * set-up; it may run several times in a row, each time replacing the
 * inputs. warmUp() runs one fixed, unchecked cell, untimed, before the
 * first rep, so the timed reps start with filled caches and finished
 * lazy initialisation. rep() runs the whole cell list once and is timed
 * as wall time. layerMetrics() reports the per-layer metrics of the
 * last rep.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual void setup(RunContext &ctx) = 0;
    virtual void warmUp(RunContext &ctx) = 0;
    virtual void rep(RunContext &ctx) = 0;
    /** Deterministic per-layer metrics of the most recent rep. */
    virtual void layerMetrics(Metrics &m) const = 0;
    /** Host-time extras measured once after the reps (traced run). */
    virtual void calibrate(RunContext &, Metrics &) {}
    /** Paper claims this workload reproduces (empty = unvalidated). */
    virtual std::vector<Claim> claims() const { return {}; }
    /** Inputs fixed by name that ignore --seed. */
    virtual std::vector<std::string> fixedInputs() const { return {}; }
};

/** The four workloads, by name; nullptr for an unknown name. Files a
 *  workload writes go under @p outDir. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const std::string &outDir);

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Host-speed reference: seconds this host takes for a fixed
 * discrete-event loop (binary heap of std::function callbacks, the shape
 * of the simulator's original kernel) that shares no code with the
 * simulator, so no change to the simulator moves it. Host drift slows
 * the simulator and this loop alike; wall_s and setup_s are scaled by
 * a nominal reference time over the run's median of this one.
 */
double referenceSeconds();

/**
 * Synthetic kernel probe: host ns per event of sim::EventQueue under a
 * fixed pending population and a delay mix of the SystemConfig Table 5
 * latencies. Median of @p trials runs of @p events events each.
 */
double kernelProbeNsPerEvent(std::uint64_t seed, unsigned trials,
                             std::uint64_t events);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
