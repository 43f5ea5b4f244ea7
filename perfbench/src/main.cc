/**
 * @file
 * Benchmark driver: runs one workload for a fixed host-time budget and
 * prints its metrics as the last line of standard output.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--plant none|wrong-count|corrupt-trace]
 *
 * Untraced (--trace 0): the end-to-end metrics, measured with no span
 * recorded. Traced (--trace 1): the per-layer metrics; rounds alternate
 * untraced/traced, per-layer host times come from the traced rounds'
 * spans, and bench.trace_overhead is their median wall time over the
 * untraced rounds' median, minus one. The spans are written to
 * <out-dir>/<workload>.seed<n>.spans.json when the run ends.
 *
 * The metrics are printed in the order they were set. BENCHMARK.json is
 * the only list of metric names and units: run.py puts the result in
 * its order, fills in 0 for a per-layer metric the workload does not
 * exercise, and rejects a metric it does not declare.
 *
 * Exit code 0 when the run completed (its "correct" field says whether
 * every check passed), 2 on a usage error.
 */


#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hh"

using namespace perfbench;

namespace {

/// Host-speed reference: measured after any round that ends at least
/// kReferenceEverySeconds after the previous measurement, and after the
/// last round, with one sample per kReferenceEverySeconds elapsed
/// (about 5% of the run). Every set-up and wall sample is scaled by
/// kReferenceNominalSeconds over the median of the measurements just
/// before and just after it, i.e. reported in seconds of a host on
/// which the reference takes the nominal time.
constexpr double kReferenceEverySeconds = 1.0;
constexpr double kReferenceNominalSeconds = 0.05;

/**
 * Scales each sample by kReferenceNominalSeconds over the median of the
 * reference samples measured just before and just after it.
 * @p group[i] is the index of the first measurement after sample i.
 */
std::vector<double>
scaleToReference(const std::vector<double> &samples,
                 const std::vector<std::size_t> &group,
                 const std::vector<std::vector<double>> &measurements)
{
    std::vector<double> scaled;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::vector<double> around = measurements[group[i]];
        if (group[i] > 0) {
            const std::vector<double> &before = measurements[group[i] - 1];
            around.insert(around.end(), before.begin(), before.end());
        }
        scaled.push_back(samples[i] * kReferenceNominalSeconds
                         / median(around));
    }
    return scaled;
}

/// Set-up is repeated within a round until it has taken this long.
constexpr double kSetupMinSeconds = 0.03;

/// Kernel probe: trials x events of the synthetic event chain.
constexpr unsigned kProbeTrials = 3;
constexpr std::uint64_t kProbeEvents = 2'000'000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    Plant plant = Plant::None;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--plant none|wrong-count|corrupt-trace]\nworkloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = val;
            } else if (flag == "--seed") {
                a.seed = std::stoull(val);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(val);
            } else if (flag == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
            } else if (flag == "--out-dir") {
                a.outDir = val;
            } else if (flag == "--plant") {
                if (val == "none")
                    a.plant = Plant::None;
                else if (val == "wrong-count")
                    a.plant = Plant::WrongCount;
                else if (val == "corrupt-trace")
                    a.plant = Plant::CorruptTrace;
                else
                    usage("unknown --plant " + val);
            } else {
                usage("unknown argument " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + val);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0) || a.seconds > 3600.0)
        usage("--seconds must be in (0, 3600]");
    return a;
}

/** Peak resident memory of this process image. VmHWM, not
 *  getrusage(): ru_maxrss survives exec, so it would report the
 *  launching process's peak when that one is larger. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Geometric mean over claims of the fold error max(r/p, p/r); 1 is a
 *  perfect match and also the value when there is no claim. A "%" gap
 *  compares as the ratio 1 + gap. */
double
fidelityError(const std::vector<Claim> &claims)
{
    if (claims.empty())
        return 1.0;
    auto ratio = [](double value, const std::string &unit) {
        return unit == "%" ? 1.0 + value / 100.0 : value;
    };
    double sum = 0.0;
    for (const Claim &c : claims) {
        sum += std::fabs(std::log2(ratio(c.reproduced, c.unit)
                                   / ratio(c.paper, c.unit)));
    }
    return std::exp2(sum / static_cast<double>(claims.size()));
}

/** Per-layer host numbers from the traced rounds' spans. */
void
setSpanMetrics(const Tracer &tracer, Metrics &m)
{
    m.set("workloads.input_gen_s",
          tracer.medianRoundSeconds("setup", "harness::SharedInputs::prepare"),
          "s");
    m.set("workloads.partition_s",
          tracer.medianRoundSeconds("setup",
                                    "harness::SharedInputs::preparePartitions"),
          "s");
    m.set("load.schedule_s",
          tracer.medianRoundSeconds("setup", "load::buildArrivalSchedule"),
          "s");
    m.set("trace.write_s",
          tracer.medianRoundSeconds("rep", "trace::writeTraceFile"), "s");
    m.set("trace.read_s",
          tracer.medianRoundSeconds("rep", "trace::readTraceFile"), "s");
    m.set("trace.replay_s",
          tracer.medianRoundSeconds("rep", "harness::runTrace"), "s");
    m.set("analysis.offline_s",
          tracer.medianRoundSeconds("rep", "analysis::analyzeTrace"), "s");
    m.set("durability.image_roundtrip_s",
          tracer.medianRoundSeconds("rep", "durability::imageRoundTrip"),
          "s");

    // Cells: every harness::run* call of the traced rounds.
    std::vector<double> cellMs;
    std::map<int, double> simSecondsPerRound;
    for (const SpanRecord &s : tracer.spans()) {
        if (s.name.rfind("harness::run", 0) != 0
            || tracer.roundKind(s.round) != "rep")
            continue;
        const double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        cellMs.push_back(sec * 1e3);
        simSecondsPerRound[s.round] += sec;
    }
    m.set("harness.cell_ms_p50", median(cellMs), "ms");
    m.set("harness.cell_ms_max",
          cellMs.empty() ? 0.0
                         : *std::max_element(cellMs.begin(), cellMs.end()),
          "ms");
    // Events per host second of the simulation calls alone, beside the
    // synthetic kernel probe.
    std::vector<double> simSeconds;
    for (const auto &[round, sec] : simSecondsPerRound)
        simSeconds.push_back(sec);
    const double simSec = median(simSeconds);
    m.set("sim.events_per_s", simSec > 0 ? m.get("sim.events") / simSec : 0.0,
          "1/s");
    const double records = m.get("trace.records");
    m.set("trace.mmap_scan_ns_per_record",
          records > 0
              ? tracer.medianRoundSeconds(
                    "rep", "trace::MappedTraceReader::validateAll")
                    * 1e9 / records
              : 0.0,
          "ns");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, args.outDir);
    if (!wl)
        usage("unknown workload " + args.workload);
    std::filesystem::create_directories(args.outDir);

    Tracer tracer;
    RunContext ctx(tracer, args.seed, args.plant);

    // -- Rounds until the budget is spent ------------------------------
    // Each round sets up afresh and then runs the cell list once (one
    // wall_s sample). Set-up is repeated until it has taken at least
    // kSetupMinSeconds, and its sample is the time per set-up: on some
    // workloads one set-up is only microseconds. Spreading the set-up
    // samples over the whole run exposes them to the same host drift as
    // the wall samples, so the two medians are equally steady. The first
    // round runs one fixed, unchecked warm-up cell between set-up and
    // the cell list, untimed, so the timed rounds start with filled
    // caches. Traced runs alternate untraced and traced rounds, so the
    // two wall times come from the same process and the same inputs;
    // a traced round traces its first set-up only.
    const unsigned minRounds = args.trace ? 4 : 3;
    std::vector<double> setupTimes, untraced, traced;
    // Reference measurements, and for each sample the index of the
    // first measurement taken after it.
    std::vector<std::vector<double>> measurements;
    std::vector<std::size_t> setupGroup, untracedGroup;
    referenceSeconds(); // warm-up: the first call pays page faults
    Clock::time_point lastReference = Clock::now();
    const Clock::time_point start = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool tracedRound = args.trace && i % 2 == 1;
        tracer.setEnabled(tracedRound);
        tracer.beginRound("setup");
        Clock::time_point t0 = Clock::now();
        unsigned setups = 0;
        do {
            Span span(tracer, "setup");
            wl->setup(ctx);
            tracer.setEnabled(false);
            ++setups;
        } while (secondsSince(t0) < kSetupMinSeconds);
        setupTimes.push_back(secondsSince(t0) / setups);
        setupGroup.push_back(measurements.size());
        if (i == 0)
            wl->warmUp(ctx);
        tracer.setEnabled(tracedRound);

        const int round = tracer.beginRound(tracedRound ? "rep" : "rep.untraced");
        ctx.setRound(round);
        t0 = Clock::now();
        {
            Span span(tracer, "rep");
            wl->rep(ctx);
        }
        const double dt = secondsSince(t0);
        if (tracedRound) {
            traced.push_back(dt);
        } else {
            untraced.push_back(dt);
            untracedGroup.push_back(measurements.size());
        }
        const bool done =
            i + 1 >= minRounds && secondsSince(start) >= args.seconds;
        const double sinceReference = secondsSince(lastReference);
        if (done || sinceReference >= kReferenceEverySeconds) {
            std::vector<double> samples;
            do {
                samples.push_back(referenceSeconds());
            } while (static_cast<double>(samples.size()) + 1.0
                     <= sinceReference / kReferenceEverySeconds);
            measurements.push_back(std::move(samples));
            lastReference = Clock::now();
        }
        if (done)
            break;
    }
    std::vector<double> referenceTimes;
    for (const std::vector<double> &m : measurements)
        referenceTimes.insert(referenceTimes.end(), m.begin(), m.end());
    const double referenceMedian = median(referenceTimes);
    const std::vector<double> setupScaled =
        scaleToReference(setupTimes, setupGroup, measurements);
    const std::vector<double> untracedScaled =
        scaleToReference(untraced, untracedGroup, measurements);

    const std::vector<Claim> claims = wl->claims();
    const std::uint64_t attempted = ctx.attempted();
    const std::uint64_t failed = ctx.failed();

    // -- Metrics ---------------------------------------------------------
    Metrics out;
    const double wallMedian = median(untraced);
    if (!args.trace) {
        out.set("wall_s", median(untracedScaled), "s");
        out.set("setup_s", median(setupScaled), "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        out.set("fidelity_err", fidelityError(claims), "x");
    } else {
        wl->layerMetrics(out);
        tracer.setEnabled(true);
        tracer.beginRound("calibrate");
        wl->calibrate(ctx, out);
        setSpanMetrics(tracer, out);
        for (const Claim &c : claims)
            out.set("fidelity." + c.name, c.reproduced, c.unit);
        {
            Span span(tracer, "sim::EventQueue::run(probe)");
            out.set("sim.kernel_ns_per_event",
                    kernelProbeNsPerEvent(args.seed, kProbeTrials,
                                          kProbeEvents),
                    "ns");
        }
        out.set("bench.trace_overhead", median(traced) / wallMedian - 1.0,
                "frac");
        out.set("bench.failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "frac");
        out.set("bench.wall_q1_s", quartile(untracedScaled, 1), "s");
        out.set("bench.wall_q3_s", quartile(untracedScaled, 3), "s");
        out.set("bench.wall_raw_s", wallMedian, "s");
        out.set("bench.reference_s", referenceMedian, "s");
    }

    bool correct = failed == 0;
    std::ostringstream metricsJson;
    for (const Metric &m : out.all()) {
        double value = m.value;
        if (!std::isfinite(value)) {
            std::cout << "metric " << m.name << " is not finite\n";
            value = 0.0;
            correct = false;
        }
        metricsJson << (metricsJson.tellp() > 0 ? ", " : "") << "\""
                    << m.name << "\": {\"value\": " << num(value)
                    << ", \"unit\": \"" << m.unit << "\"}";
    }

    // -- Human-readable summary ----------------------------------------
    std::cout << "workload " << wl->name() << " seed " << args.seed
              << (args.trace ? " (traced)" : "") << "\n";
    std::cout << "reference: " << referenceTimes.size()
              << " samples, median " << num(referenceMedian)
              << " s (nominal " << num(kReferenceNominalSeconds)
              << " s)\n";
    std::cout << "setup: " << setupTimes.size() << " rounds, median "
              << num(median(setupTimes)) << " s raw\n";
    std::cout << "wall: " << untraced.size() << " untraced rounds, median "
              << num(wallMedian);
    if (untraced.size() >= 2)
        std::cout << " s, q1 " << num(quartile(untraced, 1)) << " s, q3 "
                  << num(quartile(untraced, 3));
    std::cout << " s raw\n";
    if (args.trace)
        std::cout << "traced: " << traced.size() << " rounds, median "
                  << num(median(traced)) << " s\n";
    std::cout << "digest: " << hex(ctx.digest()) << "\n";
    std::cout << "cells: " << attempted << " attempted, " << failed
              << " failed\n";
    for (const Failure &f : ctx.failures()) {
        std::cout << "FAIL " << f.key << " (round " << f.round
                  << "): " << f.error << "\n";
    }
    if (claims.empty()) {
        std::cout << "fidelity: no paper claim on this workload; its "
                     "model is unvalidated\n";
    }
    for (const Claim &c : claims) {
        std::cout << "fidelity." << c.name << ": reproduced "
                  << num(c.reproduced) << c.unit << ", paper " << num(c.paper)
                  << c.unit << (c.note.empty() ? "" : " (" + c.note + ")")
                  << "\n";
    }
    for (const std::string &f : wl->fixedInputs())
        std::cout << "fixed input (ignores --seed): " << f << "\n";

    // -- Records under the output directory -----------------------------
    const std::string stem = args.outDir + "/" + args.workload + ".seed"
                             + std::to_string(args.seed);
    if (args.trace)
        tracer.write(stem + ".spans.json");
    {
        std::ofstream os(stem + (args.trace ? ".trace1" : ".trace0")
                         + ".json");
        os << "{\"workload\": \"" << wl->name() << "\", \"seed\": "
           << args.seed << ", \"digest\": \"" << hex(ctx.digest())
           << "\", \"raw_wall_s\": [";
        for (std::size_t i = 0; i < untraced.size(); ++i)
            os << (i ? ", " : "") << num(untraced[i]);
        os << "], \"raw_traced_wall_s\": [";
        for (std::size_t i = 0; i < traced.size(); ++i)
            os << (i ? ", " : "") << num(traced[i]);
        os << "], \"reference_s\": [";
        for (std::size_t g = 0; g < measurements.size(); ++g) {
            os << (g ? ", [" : "[");
            for (std::size_t i = 0; i < measurements[g].size(); ++i)
                os << (i ? ", " : "") << num(measurements[g][i]);
            os << "]";
        }
        os << "], \"raw_wall_group\": [";
        for (std::size_t i = 0; i < untracedGroup.size(); ++i)
            os << (i ? ", " : "") << untracedGroup[i];
        os << "], \"wall_s\": [";
        for (std::size_t i = 0; i < untracedScaled.size(); ++i)
            os << (i ? ", " : "") << num(untracedScaled[i]);
        os << "], \"raw_setup_s\": [";
        for (std::size_t i = 0; i < setupTimes.size(); ++i)
            os << (i ? ", " : "") << num(setupTimes[i]);
        os << "], \"claims\": [";
        for (std::size_t i = 0; i < claims.size(); ++i) {
            os << (i ? ", " : "") << "{\"name\": \"" << claims[i].name
               << "\", \"paper\": " << num(claims[i].paper)
               << ", \"reproduced\": " << num(claims[i].reproduced)
               << ", \"unit\": \"" << claims[i].unit << "\"}";
        }
        os << "], \"metrics\": {" << metricsJson.str() << "}}\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {" << metricsJson.str() << "}}"
              << std::endl;
    return 0;
}
