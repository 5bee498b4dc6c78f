/**
 * @file
 * One repetition of one benchmark workload, printed as one JSON object.
 *
 *   perfbench_driver <workload> <seed> <traced: 0|1>
 *
 * Untraced (0): build the host or fleet, then call the public entry
 * point the workload is defined by (Scenario::run(),
 * KsmScanner::runToQuiescence() or Cluster::run()) and the end-of-run
 * checks, and report set-up and run wall time, peak RSS and CPU time.
 *
 * Traced (1): replay the same protocol through the layers' public
 * functions with a span around every call (KSM wakes, epoch slices,
 * cluster rounds, consistency check, snapshot, accounting), keep the
 * spans in memory and derive per-layer self times from them at exit.
 *
 * Both modes print the digest of the named simulated outputs, so the
 * caller (run.py) can check that the traced replay reproduced the
 * untraced run and that both match the recorded digest for the seed.
 * The program itself exits non-zero only when a check it can make
 * alone fails (Hypervisor::checkConsistency() aborts on its own).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/json_writer.hh"
#include "bench/bench_common.hh"
#include "cluster/cluster.hh"
#include "core/scenario.hh"
#include "workload/workload_spec.hh"

using namespace jtps;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/** One timed call at a layer boundary; parent is an index or -1. */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent;
};

/**
 * In-memory span recorder. Spans nest through an open-span stack, so a
 * KSM wake fired from inside an epoch slice becomes that slice's
 * child, and a layer's self time is its duration minus its children's.
 */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) { spans_.reserve(1 << 14); }

    int
    begin(const char *name)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, now(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[id].end = now();
        open_.pop_back();
    }

    template <typename Fn>
    void
    span(const char *name, Fn fn)
    {
        const int id = begin(name);
        fn();
        end(id);
    }

    /** Self time of every span named @p name, in seconds. */
    std::vector<double>
    selfTimes(const char *name) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::vector<double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (std::strcmp(spans_[i].name, name) == 0)
                out.push_back(spans_[i].end - spans_[i].start - child[i]);
        return out;
    }

    double
    selfTotal(const char *name) const
    {
        double sum = 0.0;
        for (double v : selfTimes(name))
            sum += v;
        return sum;
    }

    /** Wall time inside any span: the sum of all layers' self times. */
    double
    attributed() const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.parent < 0)
                sum += s.end - s.start;
        return sum;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Nearest-rank percentile of @p v (0 for an empty set). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ----------------------------------------------------------------------
// Digest of the named simulated outputs
// ----------------------------------------------------------------------

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &s)
    {
        for (char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The hv/host fault, COW, eviction and swap counts that are outputs. */
const char *const hostCounters[] = {
    "hv.demand_allocs", "hv.cow_breaks",       "hv.ksm_merges",
    "host.evictions",   "host.major_faults",   "host.major_faults_ram",
    "host.pswpin",      "host.pswpout",        "host.swap_slots",
};

const char *const clusterCounters[] = {
    "cluster.epochs",           "cluster.offered_requests",
    "cluster.pages_shared",     "cluster.pages_sharing",
    "cluster.resident_frames",  "cluster.rounds",
    "cluster.served_requests",  "cluster.sla_met_epochs",
    "cluster.sla_missed_epochs", "migration.count",
    "migration.downtime_us_total", "migration.pages_precopied",
    "migration.precopy_rounds",
};

void
digestHost(Digest &d, core::Scenario &sc,
           const analysis::OwnerAccounting &acct)
{
    for (const auto &row : sc.epochHistory()) {
        d.add(static_cast<std::uint64_t>(row.size()));
        for (const auto &r : row) {
            d.add(r.achievedPerSec);
            d.add(r.avgResponseMs);
            d.add(r.faultsPerRequest);
            d.add(r.requests);
            d.add(r.majorFaults);
            d.add(static_cast<std::uint64_t>(r.slaMet));
        }
    }
    for (const auto &[key, pu] : acct.processes()) {
        d.add(static_cast<std::uint64_t>(key.first));
        d.add(static_cast<std::uint64_t>(key.second));
        d.add(static_cast<std::uint64_t>(pu.isJava));
        for (Bytes b : pu.owned)
            d.add(static_cast<std::uint64_t>(b));
        for (Bytes b : pu.shared)
            d.add(static_cast<std::uint64_t>(b));
    }
    d.add(static_cast<std::uint64_t>(acct.attributedBytes()));
    d.add(static_cast<std::uint64_t>(acct.residentBytes()));
    d.add(sc.ksm().pagesShared());
    d.add(sc.ksm().pagesSharing());
    for (const char *name : hostCounters) {
        d.add(std::string(name));
        d.add(sc.stats().get(name));
    }
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

enum class Kind
{
    Paper8Cds,
    Overcommit9,
    Bootstorm24,
    FleetMigrate,
};

bool
parseKind(const std::string &name, Kind &out)
{
    static const std::map<std::string, Kind> kinds = {
        {"paper8-cds", Kind::Paper8Cds},
        {"overcommit9", Kind::Overcommit9},
        {"bootstorm24", Kind::Bootstorm24},
        {"fleet-migrate", Kind::FleetMigrate},
    };
    const auto it = kinds.find(name);
    if (it == kinds.end())
        return false;
    out = it->second;
    return true;
}

/** Single-host configuration and VM population of a workload. */
core::ScenarioConfig
hostConfig(Kind kind, std::uint64_t seed)
{
    core::ScenarioConfig cfg;
    switch (kind) {
    case Kind::Paper8Cds: // bench_fig7 protocol, preloaded point
        cfg = bench::paperConfig(true);
        cfg.warmupMs = 70'000;
        cfg.steadyMs = 60'000;
        break;
    case Kind::Overcommit9: // the 9-VM swap storm, default JVMs
        cfg = bench::paperConfig(false);
        cfg.warmupMs = 20'000;
        cfg.steadyMs = 110'000;
        break;
    case Kind::Bootstorm24: // bench_bootstorm's cold host
        cfg = bench::paperConfig(true);
        cfg.host.ramBytes = 24 * 640ULL * MiB;
        break;
    case Kind::FleetMigrate: // the CLI's fleet host: jtps --ram 2
        cfg.host.ramBytes = 2 * GiB;
        cfg.pmlRingSlots = 4096;
        break;
    }
    cfg.seed = seed;
    return cfg;
}

std::vector<workload::WorkloadSpec>
hostSpecs(Kind kind)
{
    if (kind == Kind::Paper8Cds)
        return std::vector(8, workload::dayTraderIntel());
    if (kind == Kind::Overcommit9)
        return std::vector(9, workload::dayTraderIntel());
    // bench_bootstorm's 4-cycle: DayTrader, idle DayTrader, SPECj,
    // Tuscany.
    workload::WorkloadSpec idle = workload::dayTraderIntel();
    idle.name += "-idle";
    idle.clientThreads = 1;
    idle.guestCacheTouchesPerEpoch = 60;
    idle.lazyClassesPerEpoch = 40;
    idle.jitCompilesPerEpoch = 12;
    const workload::WorkloadSpec cycle[] = {
        workload::dayTraderIntel(), idle,
        workload::specjEnterprise2010(), workload::tuscanyBigbank()};
    std::vector<workload::WorkloadSpec> specs;
    for (std::size_t l = 0; l < 24; ++l)
        specs.push_back(cycle[l % 4]);
    return specs;
}

constexpr std::uint32_t bootstormPagesToScan = 100'000;
constexpr std::uint64_t bootstormMaxScans = 64;

/** 4 hosts x 4 VMs of the CLI mix cycle, one spare slot per host. */
constexpr std::size_t fleetHosts = 4;
constexpr std::size_t fleetVmsPerHost = 4;
constexpr Tick fleetWarmupMs = 16'000;
constexpr Tick fleetSteadyMs = 32'000;

cluster::ClusterConfig
fleetConfig(std::uint64_t seed)
{
    cluster::ClusterConfig c;
    c.hosts = fleetHosts;
    c.slotsPerHost = fleetVmsPerHost + 1; // migration headroom
    c.host = hostConfig(Kind::FleetMigrate, seed);
    c.host.warmupMs = fleetWarmupMs;
    c.placement = cluster::PlacementPolicy::DedupAware;
    c.fleetThreads = std::clamp(std::thread::hardware_concurrency(), 1u,
                                static_cast<unsigned>(fleetHosts));
    c.seed = seed;
    c.migrationEnabled = true;
    c.roundMs = 4 * c.host.epochMs;
    c.peakUsers = 1'000'000.0 *
                  static_cast<double>(c.hosts * c.slotsPerHost) / 256.0;
    return c;
}

std::vector<workload::WorkloadSpec>
fleetSpecs()
{
    const workload::WorkloadSpec cycle[] = {
        workload::dayTraderIntel(), workload::specjEnterprise2010(),
        workload::tpcwJava(), workload::tuscanyBigbank()};
    std::vector<workload::WorkloadSpec> specs;
    for (std::size_t l = 0; l < fleetHosts * fleetVmsPerHost; ++l)
        specs.push_back(cycle[l % 4]);
    return specs;
}

// ----------------------------------------------------------------------
// One repetition
// ----------------------------------------------------------------------

/** What one repetition measured and produced. */
struct Result
{
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    bool accountingOk = true;
    std::string digest;
    std::map<std::string, double> fid;    //!< paper-fidelity inputs
    std::map<std::string, double> layers; //!< per-layer (traced only)
};

/**
 * End-of-run forensics for one host: consistency check, snapshot and
 * owner accounting, each a span when @p tr is set.
 */
analysis::OwnerAccounting
finishHost(core::Scenario &sc, Tracer *tr)
{
    auto timed = [tr](const char *name, auto fn) {
        if (tr)
            tr->span(name, fn);
        else
            fn();
    };
    timed("hv.check", [&] { sc.hv().checkConsistency(); });
    analysis::Snapshot snap;
    timed("analysis.snapshot", [&] {
        if (sc.activeVmCount() == sc.vmCount()) {
            snap = sc.snapshot();
            return;
        }
        // Scenario::snapshot() walks retired guests too, whose EPTs
        // were released, and panics; walk the live population instead.
        std::vector<const guest::GuestOs *> live;
        for (std::size_t i = 0; i < sc.vmCount(); ++i)
            if (sc.vmActive(i))
                live.push_back(&sc.guest(i));
        snap = analysis::captureSnapshot(sc.hv(), live, 1, &sc.stats());
    });
    std::unique_ptr<analysis::OwnerAccounting> acct;
    // Releasing the snapshot is part of the accounting's cost.
    timed("analysis.account", [&] {
        acct = std::make_unique<analysis::OwnerAccounting>(snap);
        snap = analysis::Snapshot{};
    });
    return std::move(*acct);
}

/** Sum of one registry counter over every host. */
double
sumCounter(const std::vector<core::Scenario *> &hosts, const char *name)
{
    double sum = 0.0;
    for (core::Scenario *sc : hosts)
        sum += static_cast<double>(sc->stats().get(name));
    return sum;
}

/** Per-layer metrics from the spans and the hosts' registries. */
void
layerMetrics(Result &r, const Tracer &tr,
             const std::vector<core::Scenario *> &hosts, double migrations)
{
    auto &m = r.layers;
    const std::vector<double> epochs = tr.selfTimes("epoch");
    const std::vector<double> wakes = tr.selfTimes("ksm.wake");
    const std::vector<double> rounds = tr.selfTimes("cluster.round");
    m["mutator.busy_s"] = tr.selfTotal("epoch");
    m["mutator.epoch_ms.p50"] = 1e3 * percentile(epochs, 50);
    m["mutator.epoch_ms.p80"] = 1e3 * percentile(epochs, 80);
    m["hv.demand_allocs"] = sumCounter(hosts, "hv.demand_allocs");
    m["hv.cow_breaks"] = sumCounter(hosts, "hv.cow_breaks");
    m["host.evictions"] = sumCounter(hosts, "host.evictions");
    m["host.major_faults"] = sumCounter(hosts, "host.major_faults");
    m["host.victim_fallback_frac"] =
        ratio(sumCounter(hosts, "host.victim_fallback_sweeps"),
              m["host.evictions"]);
    const double fallbacks = sumCounter(hosts, "sim.stage_fallbacks");
    m["sim.stage_fallback_frac"] =
        ratio(fallbacks, fallbacks + sumCounter(hosts, "sim.guest_shards"));

    const double visited = sumCounter(hosts, "ksm.pages_visited");
    m["ksm.busy_s"] = tr.selfTotal("ksm.wake");
    m["ksm.wake_us.p50"] = 1e6 * percentile(wakes, 50);
    m["ksm.wake_us.p99"] = 1e6 * percentile(wakes, 99);
    m["ksm.pages_visited"] = visited;
    m["ksm.ns_per_page"] = ratio(m["ksm.busy_s"] * 1e9, visited);
    m["ksm.merge_yield"] =
        ratio(sumCounter(hosts, "ksm.stable_merges") +
                  sumCounter(hosts, "ksm.unstable_promotions"),
              visited);
    m["ksm.gen_skip_frac"] =
        ratio(sumCounter(hosts, "ksm.pages_gen_skipped"), visited);
    const double pml_skipped = sumCounter(hosts, "ksm.pages_pml_skipped");
    m["ksm.pml_skip_frac"] = ratio(pml_skipped, pml_skipped + visited);

    double resident = 0.0;
    for (core::Scenario *sc : hosts)
        resident += static_cast<double>(sc->hv().residentFrames());
    m["hv.check_s"] = tr.selfTotal("hv.check");
    m["analysis.snapshot_s"] = tr.selfTotal("analysis.snapshot");
    m["analysis.account_s"] = tr.selfTotal("analysis.account");
    m["analysis.ns_per_frame"] =
        ratio((m["analysis.snapshot_s"] + m["analysis.account_s"]) * 1e9,
              resident);
    m["host.resident_frames"] = resident;

    m["cluster.round_ms.p50"] = 1e3 * percentile(rounds, 50);
    m["cluster.round_ms.max"] = 1e3 * percentile(rounds, 100);
    m["cluster.rounds"] = static_cast<double>(rounds.size());
    m["migration.count"] = migrations;

    m["trace.unattributed_s"] = r.runS - tr.attributed();
}

/** Fidelity inputs of a paper-protocol single host. */
void
fidelityInputs(Result &r, Kind kind, core::Scenario &sc,
               const analysis::OwnerAccounting &acct)
{
    if (kind != Kind::Paper8Cds && kind != Kind::Overcommit9)
        return;
    // bench_fig7 reports the mean over the last 12 epochs.
    r.fid["rq_s"] = sc.aggregateThroughput(12);
    if (kind != Kind::Paper8Cds)
        return;
    // Fig. 5(a): class metadata shared by the non-primary JVMs.
    const auto rows = sc.javaRows();
    double sum = 0.0;
    for (std::size_t i = 1; i < rows.size(); ++i)
        sum += bench::classMetadataSharedFraction(acct, rows[i]);
    r.fid["class_meta_shared_pct"] =
        100.0 * sum / static_cast<double>(rows.size() - 1);
}

Result
runHost(Kind kind, std::uint64_t seed, bool traced)
{
    Result r;
    const core::ScenarioConfig cfg = hostConfig(kind, seed);
    core::Scenario sc(cfg, hostSpecs(kind));
    const auto s0 = Clock::now();
    sc.build();
    r.setupS = secondsSince(s0);

    Tracer tr;
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    ksm::KsmScanner &ksm = sc.ksm();
    if (kind == Kind::Bootstorm24) {
        ksm.setPagesToScan(bootstormPagesToScan);
        if (!traced) {
            ksm.runToQuiescence(bootstormMaxScans);
        } else {
            // KsmScanner::runToQuiescence() from public state: a pass
            // ends when fullScans() moves; two merge-free passes in a
            // row (stable merges + promotions) end the convergence.
            auto merges = [&sc] {
                return sc.stats().get("ksm.stable_merges") +
                       sc.stats().get("ksm.unstable_promotions");
            };
            std::uint64_t quiet = 0;
            for (std::uint64_t pass = 0;
                 pass < bootstormMaxScans && quiet < 2; ++pass) {
                const std::uint64_t start = ksm.fullScans();
                const std::uint64_t m0 = merges();
                while (ksm.fullScans() == start)
                    tr.span("ksm.wake", [&] { ksm.scanBatch(); });
                quiet = merges() == m0 ? quiet + 1 : 0;
            }
        }
    } else if (!traced) {
        sc.run();
    } else {
        // Scenario::run() from public parts: the scanner's periodic
        // wake (exactly what KsmScanner::attach schedules, but timed),
        // then the warm-up and steady phases in epoch-long slices.
        ksm.setPagesToScan(cfg.ksmWarmupPagesToScan);
        sc.queue().schedulePeriodic(ksm.config().sleepMillisecs, [&] {
            tr.span("ksm.wake", [&] { ksm.scanBatch(); });
            return true;
        });
        for (Tick t = 0; t < cfg.warmupMs; t += cfg.epochMs)
            tr.span("epoch", [&] { sc.runFor(cfg.epochMs); });
        ksm.setPagesToScan(cfg.ksm.pagesToScan);
        for (Tick t = 0; t < cfg.steadyMs; t += cfg.epochMs)
            tr.span("epoch", [&] { sc.runFor(cfg.epochMs); });
    }
    const analysis::OwnerAccounting acct =
        finishHost(sc, traced ? &tr : nullptr);
    r.runS = secondsSince(t0);
    r.cpuS = cpuSeconds() - c0;

    r.accountingOk = acct.attributedBytes() == acct.residentBytes();
    Digest d;
    digestHost(d, sc, acct);
    r.digest = d.hex();
    fidelityInputs(r, kind, sc, acct);
    if (traced)
        layerMetrics(r, tr, {&sc}, 0.0);
    return r;
}

Result
runFleet(std::uint64_t seed, bool traced)
{
    Result r;
    const cluster::ClusterConfig cfg = fleetConfig(seed);
    cluster::Cluster fleet(cfg, fleetSpecs());
    const auto s0 = Clock::now();
    fleet.build();
    r.setupS = secondsSince(s0);

    Tracer tr;
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    const Tick total = fleetWarmupMs + fleetSteadyMs;
    if (!traced) {
        fleet.run(total);
    } else {
        for (Tick t = 0; t < total; t += cfg.roundMs)
            tr.span("cluster.round", [&] { fleet.run(cfg.roundMs); });
    }
    std::vector<core::Scenario *> hosts;
    std::vector<analysis::OwnerAccounting> accts;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        hosts.push_back(&fleet.host(h));
        accts.push_back(finishHost(fleet.host(h), traced ? &tr : nullptr));
    }
    r.runS = secondsSince(t0);
    r.cpuS = cpuSeconds() - c0;

    Digest d;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
        r.accountingOk = r.accountingOk && accts[h].attributedBytes() ==
                                               accts[h].residentBytes();
        digestHost(d, *hosts[h], accts[h]);
    }
    for (const char *name : clusterCounters) {
        d.add(std::string(name));
        d.add(fleet.stats().get(name));
    }
    r.digest = d.hex();
    if (traced) {
        const auto migrations = fleet.stats().get("migration.count");
        layerMetrics(r, tr, hosts, static_cast<double>(migrations));
    }
    return r;
}

void
printResult(const std::string &workload, std::uint64_t seed, bool traced,
            const Result &r)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", seed);
    w.field("traced", traced);
    w.field("setup_s", r.setupS);
    w.field("run_s", r.runS);
    w.field("cpu_s", r.cpuS);
    w.field("peak_rss_mib", peakRssMiB());
    w.field("accounting_ok", r.accountingOk);
    w.field("digest", r.digest);
    w.key("fid").beginObject();
    for (const auto &[k, v] : r.fid)
        w.field(k, v);
    w.endObject();
    w.key("layers").beginObject();
    for (const auto &[k, v] : r.layers)
        w.field(k, v);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Kind kind{};
    if (argc != 4 || !parseKind(argv[1], kind) ||
        (std::strcmp(argv[3], "0") != 0 && std::strcmp(argv[3], "1") != 0)) {
        std::fprintf(stderr, "usage: %s <paper8-cds|overcommit9|"
                             "bootstorm24|fleet-migrate> <seed> <0|1>\n",
                     argv[0]);
        return 2;
    }
    setVerbose(false);
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    const bool traced = argv[3][0] == '1';
    const Result r = kind == Kind::FleetMigrate
                         ? runFleet(seed, traced)
                         : runHost(kind, seed, traced);
    printResult(argv[1], seed, traced, r);
    // Skip tearing down a multi-GiB simulation: nothing is left to
    // flush but stdout.
    std::fflush(stdout);
    std::_Exit(r.accountingOk ? 0 : 1);
}
