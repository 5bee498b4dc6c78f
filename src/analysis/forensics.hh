/**
 * @file
 * Memory forensics: the paper's measurement methodology (§II).
 *
 * The paper collects crash dumps of the host OS, KVM dumps of every
 * guest, and the KVM in-kernel translation tables (via a custom kernel
 * module reading the kvm-vm device's private_data), then walks all
 * three translation layers to attribute every host physical page frame.
 *
 * Our simulator holds the same three layers live — guest process page
 * tables (guest OS), gfn→hfn tables (hypervisor EPT), and the host
 * frame table — so capture() performs the identical walk: for every
 * mapped virtual page of every process of every guest, resolve
 * vpn → gfn → hfn, and record a reference
 * (vm, pid, is-java, memory category) against that frame.
 */

#ifndef JTPS_ANALYSIS_FORENSICS_HH
#define JTPS_ANALYSIS_FORENSICS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

namespace jtps::analysis
{

/** One observed mapping of a host frame. */
struct FrameRef
{
    VmId vm = invalidVm;
    Gfn gfn = invalidFrame; //!< the guest page this mapping goes through
    Pid pid = invalidPid;
    bool isJava = false;
    guest::MemCategory category = guest::MemCategory::OtherProcess;

    bool operator==(const FrameRef &other) const = default;
};

/**
 * A captured snapshot: every mapped host frame with the guest
 * references that map it, plus the hypervisor-private (VM process
 * overhead) frames per VM.
 *
 * The frames are stored flat, in compressed-sparse-row form: frame i
 * is host frame hfns[i] (ascending, no duplicates) and its references
 * are refs[offsets[i], offsets[i+1]). Within a frame the references
 * keep walk order: guests in VM order, pages in walk order.
 */
struct Snapshot
{
    /** Distinct mapped host frames, ascending. */
    std::vector<Hfn> hfns;
    /** frameCount() + 1 row boundaries into refs. */
    std::vector<std::size_t> offsets = {0};
    /** Every frame's references, frame after frame. */
    std::vector<FrameRef> refs;
    /** VM-overhead (pinned) frame counts per VM id. */
    std::vector<std::uint64_t> overheadFrames;
    /** Total resident frames on the host at capture time. */
    std::uint64_t totalResidentFrames = 0;
    /** Number of guests walked. */
    std::size_t vmCount = 0;

    /** Number of distinct mapped frames. */
    std::size_t frameCount() const { return hfns.size(); }

    /** The references of frame @p i (never empty). */
    std::span<const FrameRef>
    frameRefs(std::size_t i) const
    {
        return {refs.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }
};

/**
 * Walk all translation layers and produce a Snapshot.
 *
 * The walk shards per guest: each VM's vpn → gfn → hfn resolution is
 * an independent read-only task, fanned out across a ThreadPool when
 * @p threads > 1 (the bench::sweep pattern). Every shard records its
 * (frame, reference) pairs in walk order; the main thread then groups
 * them by frame with one stable counting sort over the host's frame
 * numbers, taking the shards in fixed VM order, so the Snapshot is
 * identical at any thread count.
 *
 * @param hv The hypervisor (host layer + EPTs).
 * @param guests One GuestOs per VM, indexed by VmId.
 * @param threads Worker threads for the per-guest walks (1 = serial).
 * @param stats Optional sink for `forensics.walk_shards`.
 */
Snapshot captureSnapshot(const hv::Hypervisor &hv,
                         const std::vector<const guest::GuestOs *> &guests,
                         unsigned threads = 1, StatSet *stats = nullptr);

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_FORENSICS_HH
