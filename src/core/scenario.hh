/**
 * @file
 * Scenario orchestration: the paper's experimental setup as a public
 * API.
 *
 * A Scenario assembles the full stack — host, KVM hypervisor, KSM
 * scanner, guest VMs with booted kernels and daemons, one Java
 * application server per guest, closed-loop client drivers — and runs
 * the paper's measurement protocol:
 *
 *   1. startup: guests boot, WAS starts, startup classes load
 *      (through a copied shared class cache when class sharing is on);
 *   2. warm-up: KSM scans aggressively (pages_to_scan = 10,000, ~25%
 *      CPU) while DayTrader-style load warms the JVMs — the paper's
 *      "first three minutes";
 *   3. steady state: KSM throttled to 1,000 pages (~2% CPU) while the
 *      client drivers run; measurements are taken at the end.
 *
 * Class-sharing deployment follows §IV.C: the cache is populated once
 * per middleware (on the base image) and the same file is copied to
 * every VM — or, for the ablation, repopulated independently in each VM
 * (same classes, different layout, no cross-VM sharing).
 */

#ifndef JTPS_CORE_SCENARIO_HH
#define JTPS_CORE_SCENARIO_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "analysis/report.hh"
#include "analysis/sharing_monitor.hh"
#include "analysis/wss_estimator.hh"
#include "core/balloon_governor.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "jvm/java_vm.hh"
#include "jvm/shared_class_cache.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"
#include "workload/client_driver.hh"
#include "workload/workload_spec.hh"

namespace jtps::core
{

/** Scenario-wide configuration. */
struct ScenarioConfig
{
    hv::HostConfig host;               //!< Table I (6 GB RAM default)
    guest::KernelConfig kernel;        //!< guest kernel footprint
    Bytes vmOverheadBytes = 48 * MiB;  //!< QEMU process per VM
    ksm::KsmConfig ksm;                //!< steady-state tuning
    std::uint32_t ksmWarmupPagesToScan = 10000; //!< paper's warm-up rate

    Tick warmupMs = 60'000;  //!< aggressive-KSM warm-up phase
    Tick steadyMs = 120'000; //!< measured steady-state phase
    Tick epochMs = 2'000;    //!< driver epoch length

    std::uint64_t seed = 42;

    /**
     * Host identity stamped into this scenario's run documents: the
     * StatSet scope and the trace stream's scope label. Multi-host
     * runs (the cluster layer) set one label per host so merged
     * registries and traces stay distinguishable; "" (the default)
     * keeps single-host documents byte-identical to the unlabeled
     * format.
     */
    std::string hostLabel;

    /** Enable the paper's technique (class sharing + copied cache). */
    bool enableClassSharing = false;
    /** What the cache stores (middleware-only is the paper's setup). */
    jvm::CacheScope cacheScope = jvm::CacheScope::MiddlewareOnly;
    /**
     * true  — populate once, copy the file to every VM (the paper);
     * false — populate independently inside each VM (ablation: same
     *         classes, different layout, no cross-VM page equality).
     */
    bool copyCacheToAllVms = true;
    /**
     * AOT section budget added to each populated cache (0 disables).
     * Workloads opt in via WorkloadSpec::useAotCache.
     */
    Bytes aotCacheBytes = 0;
    /** Methods eligible for AOT storage (in hot order). */
    std::uint32_t aotMethodCount = 1500;
    /** Average stored AOT body size. */
    Bytes aotAvgMethodBytes = 18 * KiB;

    double diskIops = 120.0;      //!< host swap-disk fault capacity
    double diskLatencyMs = 5.0;   //!< unloaded page-in latency

    /** Small non-Java daemons booted in each guest. */
    bool spawnDaemons = true;

    /**
     * Guests run with transparent huge pages on anonymous process
     * memory (defeats KSM on those regions; the THP ablation measures
     * the interaction with the paper's technique).
     */
    bool guestThp = false;

    /**
     * Worker threads for the forensics walk and accounting collapse in
     * snapshot()/account(). Results are byte-identical at any value
     * (the reduce replays the serial order); 1 keeps analysis fully
     * serial.
     */
    unsigned analysisThreads = 1;

    /**
     * Worker threads for the KSM scan's classify phase (overrides
     * ksm.scanThreads at build()). Like analysisThreads, a pure
     * machine-sizing knob: merges, counters and traces are
     * byte-identical at any value because all scan mutations replay
     * serially in canonical order (docs/PERF.md); <= 1 keeps the scan
     * fully serial.
     */
    unsigned ksmScanThreads = 1;

    /**
     * Digest shards for the KSM commit phase (overrides
     * ksm.commitShards at build()). >= 2 partitions the merge indexes
     * by digest and commits each batch as that many independent shard
     * jobs plus a serial reduce (ksm::KsmConfig::commitShards) —
     * another machine-sizing knob: results are byte-identical at any
     * value, only `ksm.commit_shards` / `ksm.shard_imbalance_max`
     * move. Must divide 64; ignored under PML mode.
     */
    unsigned ksmCommitShards = 1;

    /**
     * Kernel window size for the scanner's batched content stage
     * (overrides ksm.batchPages at build()). Another machine-sizing
     * knob: merges, counters and traces are byte-identical at any
     * value — only the `ksm.batch_*` accounting moves. 1 disables the
     * staging and reproduces the one-page-at-a-time visit exactly;
     * clamped to [1, 128].
     */
    std::uint32_t ksmBatchPages = 16;

    /**
     * Per-VM Page-Modification-Log ring size in slots (see
     * hv::HostConfig::pmlRingSlots). Non-zero overrides host.pmlRingSlots
     * AND switches the KSM scanner to its log-driven pass mode
     * (ksm::KsmConfig::usePml) — O(dirty) passes, byte-identical
     * merges. 0 keeps the generation-walk scanner and no rings.
     */
    std::uint32_t pmlRingSlots = 0;

    /**
     * Replace the fixed, hand-sized balloons of the paper's §VI
     * comparison with the adaptive core::BalloonGovernor: every
     * balloonIntervalMs each guest's balloon is resized to its
     * PML-estimated working set plus balloonSlackBytes. Requires
     * pmlRingSlots > 0 (the estimator reads the rings).
     */
    bool adaptiveBalloon = false;
    /** Working-set slack the governor leaves each guest. */
    Bytes balloonSlackBytes = 32 * MiB;
    /** Governor control-loop period. */
    Tick balloonIntervalMs = 2000;
    /**
     * Per-interval cap on balloon resizes (BalloonGovernorConfig::
     * maxStepPages). Bounds the reclaim burst one governor step can
     * ask a guest for — a cold estimator plus a big guest would
     * otherwise request hundreds of thousands of page reclaims in
     * one simulated instant. Kept small relative to the page-cache
     * refill rate: a probe that bites live cache must be cheap to
     * undo, since dropped pages come back one disk read at a time.
     */
    Bytes balloonMaxStepBytes = 16 * MiB;
    /** Working-set sampling window (analysis::WssConfig::windowMs). */
    Tick wssWindowMs = 2000;
};

/**
 * A complete virtualized-host experiment.
 */
class Scenario
{
  public:
    /**
     * @param cfg Scenario configuration.
     * @param per_vm_workloads One workload per guest VM (all four
     *        paper workloads can be mixed, as in Fig. 3(b)).
     */
    Scenario(const ScenarioConfig &cfg,
             std::vector<workload::WorkloadSpec> per_vm_workloads);
    ~Scenario();

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    /** Create the host, guests, JVMs and drivers; boot everything. */
    void build();

    /** Run warm-up + steady state (build() must have run). */
    void run();

    /** Run only @p ms more simulated time (for custom protocols). */
    void runFor(Tick ms);

    // ------------------------------------------------------------------
    // VM lifecycle (live migration support, cluster layer)
    // ------------------------------------------------------------------

    /**
     * Retire VM @p i mid-run: its driver stops at the next epoch
     * boundary and every page it owns — guest memory and VM-process
     * overhead — is released (hv::Hypervisor::releaseVmMemory). The
     * guest/JVM/driver objects stay so ids and names remain dense;
     * vmActive(i) turns false and the VM's later epoch rows read as
     * all-zero. Call between runFor() slices (not from inside an
     * event). This is the source half of a migration or a poweroff.
     */
    void retireVm(std::size_t i);

    /**
     * Build, boot and start driving a new VM mid-run (the destination
     * half of a migration): full guest + JVM + driver construction,
     * class-set/cache wiring included, at the next free VM id. Call
     * between runFor() slices. @return the new VM's index.
     */
    std::size_t addVm(const workload::WorkloadSpec &spec);

    /** False once retireVm(i) ran. */
    bool vmActive(std::size_t i) const { return active_[i]; }

    /** VMs not yet retired. */
    std::size_t activeVmCount() const;

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /** Capture the three-layer translation walk of the active guests
     *  (analysisThreads-wide, counted in `forensics.walk_shards`). */
    analysis::Snapshot snapshot();

    /** Owner-oriented accounting of a fresh snapshot. */
    analysis::OwnerAccounting account();

    /** Names of all VMs in id order. */
    std::vector<std::string> vmNames() const;

    /** Rows identifying each guest's Java process (for reports). */
    std::vector<analysis::JavaProcRow> javaRows() const;

    /**
     * Aggregate achieved throughput (requests/s summed over VMs),
     * averaged over the most recent @p epochs epochs.
     */
    double aggregateThroughput(std::size_t epochs = 5) const;

    /** Per-VM achieved throughput averaged over recent epochs. */
    std::vector<double> perVmThroughput(std::size_t epochs = 5) const;

    /** Per-VM average response time over recent epochs. */
    std::vector<double> perVmResponseMs(std::size_t epochs = 5) const;

    /** One row per completed epoch, one EpochResult per VM (retired
     *  VMs read all-zero). The cluster layer consumes new rows after
     *  each round for its fleet-level SLA accounting. */
    const std::vector<std::vector<workload::ClientDriver::EpochResult>> &
    epochHistory() const
    {
        return epoch_history_;
    }

    /** The workload spec VM @p i was built from. */
    const workload::WorkloadSpec &
    workloadSpec(std::size_t i) const
    {
        return specs_[i];
    }

    // ------------------------------------------------------------------
    // Component access
    // ------------------------------------------------------------------

    hv::KvmHypervisor &hv() { return *hv_; }
    const hv::KvmHypervisor &hv() const { return *hv_; }
    ksm::KsmScanner &ksm() { return *ksm_; }
    guest::GuestOs &guest(std::size_t i) { return *guests_[i]; }
    jvm::JavaVm &javaVm(std::size_t i) { return *jvms_[i]; }
    workload::ClientDriver &driver(std::size_t i) { return *drivers_[i]; }
    std::size_t vmCount() const { return guests_.size(); }
    StatSet &stats() { return stats_; }
    sim::EventQueue &queue() { return queue_; }
    workload::HostDisk &disk() { return disk_; }

    /**
     * The scenario's trace sink. Wired into the hypervisor (and from
     * there the swap device, scanner and guest models) by build(), but
     * disabled until trace().enable() is called, so untraced runs stay
     * at full speed.
     */
    TraceBuffer &trace() { return trace_; }
    const TraceBuffer &trace() const { return trace_; }

    /**
     * Attach a SharingMonitor sampling every @p period_ms of simulated
     * time (call after build(), before run()). Idempotent: a second
     * call returns the existing monitor without rescheduling.
     */
    analysis::SharingMonitor &attachSharingMonitor(Tick period_ms = 2000);

    /** The attached monitor, or nullptr if none was requested. */
    analysis::SharingMonitor *monitor() { return monitor_.get(); }
    const analysis::SharingMonitor *monitor() const
    {
        return monitor_.get();
    }

    /** The working-set estimator (nullptr unless adaptiveBalloon). */
    analysis::WssEstimator *wss() { return wss_.get(); }

    /** The balloon governor (nullptr unless adaptiveBalloon). */
    BalloonGovernor *balloonGovernor() { return governor_.get(); }

  private:
    void scheduleEpochs();
    void scheduleEpochBlock();
    void prepareVmArtifacts(std::size_t i);
    void buildVm(std::size_t i);

    ScenarioConfig cfg_;
    /** Deque, not vector: ClientDriver keeps a reference to its spec,
     *  and addVm() must not invalidate it. */
    std::deque<workload::WorkloadSpec> specs_;

    StatSet stats_;
    TraceBuffer trace_;
    sim::EventQueue queue_;
    workload::HostDisk disk_;
    std::unique_ptr<analysis::SharingMonitor> monitor_;

    std::unique_ptr<hv::KvmHypervisor> hv_;
    std::unique_ptr<ksm::KsmScanner> ksm_;
    std::unique_ptr<analysis::WssEstimator> wss_;
    std::unique_ptr<BalloonGovernor> governor_;
    std::vector<std::unique_ptr<guest::GuestOs>> guests_;
    std::vector<std::unique_ptr<jvm::JavaVm>> jvms_;
    std::vector<std::unique_ptr<workload::ClientDriver>> drivers_;

    /** One class set per distinct program. */
    std::map<std::string, std::unique_ptr<jvm::ClassSet>> class_sets_;
    /** Cache per (middleware cache name [, vm]) depending on copy mode. */
    std::vector<std::unique_ptr<jvm::SharedClassCache>> caches_;
    std::vector<const jvm::SharedClassCache *> vm_cache_;
    /** Copy-mode cache lookup (one population per cache name). */
    std::map<std::string, const jvm::SharedClassCache *> cache_by_name_;

    /** Per-epoch per-VM results, appended as epochs run. */
    std::vector<std::vector<workload::ClientDriver::EpochResult>>
        epoch_history_;
    /** Per-VM liveness (retireVm clears; epoch events skip inactive). */
    std::vector<bool> active_;
    /**
     * Epoch-schedule generation. retireVm()/addVm() change the VM
     * population while the next epoch event is already queued. Instead
     * of hunting it down, the generation is bumped and a new epoch
     * chain scheduled: every epoch event captured its generation at
     * scheduling and ends its chain (returns false) when it wakes
     * stale.
     */
    std::uint64_t epoch_gen_ = 0;
    bool built_ = false;
    bool epochs_scheduled_ = false;
};

} // namespace jtps::core

#endif // JTPS_CORE_SCENARIO_HH
