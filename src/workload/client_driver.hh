/**
 * @file
 * Closed-loop client driver and the shared host disk model.
 *
 * Each guest VM's application server is exercised by a fixed number of
 * client threads (Table III: 12 for DayTrader, injection rate 15 for
 * SPECjEnterprise, ...) in a closed loop: think, send request, wait for
 * the response. Request service performs the real memory work against
 * the JVM model — allocation, header mutation, working-set touches — so
 * host-level major faults arise mechanically from the hypervisor's
 * paging, and the response time grows with the faults a request takes.
 *
 * All VMs share one host disk: when overcommit drives the aggregate
 * fault rate toward the disk's capacity, fault latency grows
 * queueing-style and throughput collapses — the dynamics behind the
 * paper's Figs. 7 and 8.
 */

#ifndef JTPS_WORKLOAD_CLIENT_DRIVER_HH
#define JTPS_WORKLOAD_CLIENT_DRIVER_HH

#include <cstdint>

#include "base/rng.hh"
#include "base/types.hh"
#include "jvm/java_vm.hh"
#include "workload/workload_spec.hh"

namespace jtps::workload
{

/**
 * The host's swap disk, shared by every guest VM.
 *
 * Major-fault latency follows a simple open queue: at utilisation u of
 * the disk's fault IOPS, effective latency = base / (1 - u), with u
 * computed from the previous epoch's aggregate fault rate and capped
 * just below 1 so a saturated disk yields latencies two orders above
 * base — a thrashing host.
 */
class HostDisk
{
  public:
    /**
     * @param iops_capacity Sustainable major faults per second.
     * @param base_latency_ms Unloaded page-in latency.
     */
    explicit HostDisk(double iops_capacity = 120.0,
                      double base_latency_ms = 5.0)
        : iops_(iops_capacity), base_ms_(base_latency_ms)
    {
    }

    /** Start an accounting epoch of @p epoch_ms. */
    void
    beginEpoch(Tick epoch_ms)
    {
        epoch_ms_ = epoch_ms;
        faults_ = 0;
    }

    /** Record @p n major faults taken this epoch. */
    void recordFaults(std::uint64_t n) { faults_ += n; }

    /** Close the epoch: update the utilisation estimate. */
    void
    endEpoch()
    {
        const double rate =
            faults_ * 1000.0 / static_cast<double>(epoch_ms_);
        const double u = rate / iops_;
        // Smooth a little so one quiet epoch doesn't reset a thrashing
        // disk's queue.
        utilization_ = 0.3 * utilization_ + 0.7 * u;
    }

    /** Current effective per-fault latency in milliseconds. */
    double
    faultLatencyMs() const
    {
        const double u = utilization_ < 0.995 ? utilization_ : 0.995;
        return base_ms_ / (1.0 - u);
    }

    /** Previous-epoch utilisation estimate (can exceed 1 if saturated). */
    double utilization() const { return utilization_; }

  private:
    double iops_;
    double base_ms_;
    double utilization_ = 0.0;
    std::uint64_t faults_ = 0;
    Tick epoch_ms_ = 1;
};

/**
 * The closed-loop driver for one VM's application server.
 */
class ClientDriver
{
  public:
    /** Latency of a refault served from compressed RAM (decompress). */
    static constexpr double compressedRefaultMs = 0.05;

    /** Result of one measurement epoch. */
    struct EpochResult
    {
        double achievedPerSec = 0;  //!< requests per second
        double avgResponseMs = 0;   //!< service + fault time
        double faultsPerRequest = 0;
        std::uint64_t requests = 0; //!< requests executed this epoch
        std::uint64_t majorFaults = 0;
        bool slaMet = true;
    };

    ClientDriver(jvm::JavaVm &vm, const WorkloadSpec &spec,
                 HostDisk &disk);

    /**
     * Drive @p epoch_ms of load: execute the requests the closed loop
     * can issue at the current cycle time, performing their memory work
     * and measuring the faults they take.
     */
    EpochResult runEpoch(Tick epoch_ms);

    /** True once lazy loading and JIT warm-up are finished. */
    bool warm() const { return warm_; }

    /** The driven JVM. */
    jvm::JavaVm &vm() { return vm_; }

  private:
    void warmupWork();
    std::uint64_t plannedRequests(Tick epoch_ms) const;
    void runRequests(std::uint64_t requests);

    jvm::JavaVm &vm_;
    const WorkloadSpec &spec_;
    HostDisk &disk_;
    double cycle_ms_estimate_;
    bool warm_ = false;
    Rng mix_rng_;
    std::uint32_t mix_weight_ = 0; //!< cached totalMixWeight()
};

} // namespace jtps::workload

#endif // JTPS_WORKLOAD_CLIENT_DRIVER_HH
