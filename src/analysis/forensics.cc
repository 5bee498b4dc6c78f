#include "analysis/forensics.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace jtps::analysis
{

namespace
{

/**
 * Walk one guest's processes (layers 1+2): resolve every mapped vpage
 * to a host frame and record the reference. Appending to an ordered
 * vector instead of a shared structure keeps the shard free of shared
 * mutable state.
 */
std::vector<std::pair<Hfn, FrameRef>>
walkGuest(const hv::Hypervisor &hv, const guest::GuestOs &os)
{
    std::vector<std::pair<Hfn, FrameRef>> out;
    std::size_t mapped = 0;
    for (const auto &proc : os.processes())
        mapped += proc->pageTable.size();
    out.reserve(mapped);
    const VmId vm_id = os.vmId();
    for (const auto &proc : os.processes()) {
        for (const auto &vma : proc->vmas) {
            for (std::uint64_t i = 0; i < vma->numPages; ++i) {
                auto pte = proc->pageTable.find(vma->vpnAt(i));
                if (pte == proc->pageTable.end())
                    continue; // never touched
                const Hfn hfn = hv.translate(vm_id, pte->second);
                if (hfn == invalidFrame)
                    continue; // swapped out: not physical memory
                out.emplace_back(hfn,
                                 FrameRef{vm_id, pte->second, proc->pid,
                                          proc->isJava, vma->category});
            }
        }
    }
    return out;
}

} // namespace

Snapshot
captureSnapshot(const hv::Hypervisor &hv,
                const std::vector<const guest::GuestOs *> &guests,
                unsigned threads, StatSet *stats)
{
    Snapshot snap;
    snap.vmCount = guests.size();
    snap.totalResidentFrames = hv.residentFrames();
    snap.overheadFrames.assign(hv.vmCount(), 0);

    // Layer 3 first: VM-process-private frames (pinned, no EPT entry).
    for (VmId v = 0; v < hv.vmCount(); ++v)
        snap.overheadFrames[v] = hv.vm(v).overheadFrames.size();

    // Layers 1+2: one shard per guest, into pre-assigned slots.
    std::vector<std::vector<std::pair<Hfn, FrameRef>>> per_guest(
        guests.size());
    for (const guest::GuestOs *os : guests)
        jtps_assert(os != nullptr);
    if (threads > 1 && guests.size() > 1) {
        ThreadPool pool(std::min<unsigned>(
            threads, static_cast<unsigned>(guests.size())));
        for (std::size_t g = 0; g < guests.size(); ++g) {
            pool.submit([&hv, &per_guest, &guests, g]() {
                per_guest[g] = walkGuest(hv, *guests[g]);
            });
        }
        pool.wait();
    } else {
        for (std::size_t g = 0; g < guests.size(); ++g)
            per_guest[g] = walkGuest(hv, *guests[g]);
    }
    if (stats)
        stats->inc("forensics.walk_shards", guests.size());

    // Deterministic reduce: one stable counting sort by hfn. Shards are
    // taken in VM order and each in walk order, so every frame keeps the
    // serial walk's reference order. cursor[hfn] first counts the
    // frame's references, then becomes its next free slot in refs.
    const std::uint64_t capacity = hv.frames().capacity();
    std::vector<std::size_t> cursor(capacity, 0);
    for (const auto &shard : per_guest) {
        for (const auto &[hfn, ref] : shard) {
            jtps_assert(hfn < capacity);
            ++cursor[hfn];
        }
    }
    std::size_t total = 0;
    for (Hfn hfn = 0; hfn < capacity; ++hfn) {
        const std::size_t count = cursor[hfn];
        if (count == 0)
            continue;
        snap.hfns.push_back(hfn);
        cursor[hfn] = total;
        total += count;
        snap.offsets.push_back(total);
    }
    snap.refs.resize(total);
    for (auto &shard : per_guest) {
        for (const auto &[hfn, ref] : shard)
            snap.refs[cursor[hfn]++] = ref;
        shard = {}; // release as we go: keeps the peak near one copy
    }
    return snap;
}

} // namespace jtps::analysis
