#include "analysis/accounting.hh"

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "base/logging.hh"

namespace jtps::analysis
{

Bytes
ProcessUsage::ownedTotal() const
{
    Bytes total = 0;
    for (Bytes b : owned)
        total += b;
    return total;
}

Bytes
ProcessUsage::sharedTotal() const
{
    Bytes total = 0;
    for (Bytes b : shared)
        total += b;
    return total;
}

namespace
{

/**
 * Attribution priority of a mapping when one guest page is mapped by
 * several processes of the same guest (a file page sits in the kernel
 * page cache *and* in the mmap of the process using it): the paper
 * attributes such pages to the Java process, then to other user
 * processes, and to the kernel only when no process maps them.
 */
int
reprPriority(const FrameRef &ref)
{
    if (ref.isJava)
        return 0;
    return ref.pid > 0 ? 1 : 2;
}

/** Sort key grouping refs by guest page, best representative first. */
std::tuple<VmId, Gfn, int, Pid>
groupKey(const FrameRef &ref)
{
    return {ref.vm, ref.gfn, reprPriority(ref), ref.pid};
}

/**
 * Owner-selection key among guest pages: Java processes always win;
 * ties break to the smallest PID, then the smallest VM id (§II.A).
 */
std::tuple<int, Pid, VmId>
ownerKey(const FrameRef &ref)
{
    return {ref.isJava ? 0 : 1, ref.pid, ref.vm};
}

/**
 * Reduce a frame's reference list to one representative per guest page
 * (vm, gfn), and return the index of the owning guest page.
 * @param refs Sorted/compacted in place.
 */
std::size_t
collapseToGuestPages(std::vector<FrameRef> &refs)
{
    std::sort(refs.begin(), refs.end(),
              [](const FrameRef &a, const FrameRef &b) {
                  return groupKey(a) < groupKey(b);
              });
    std::size_t out = 0;
    for (std::size_t i = 0; i < refs.size();) {
        std::size_t j = i + 1;
        while (j < refs.size() && refs[j].vm == refs[i].vm &&
               refs[j].gfn == refs[i].gfn) {
            ++j;
        }
        refs[out++] = refs[i]; // best-priority mapping of this page
        i = j;
    }
    refs.resize(out);

    std::size_t owner = 0;
    for (std::size_t i = 1; i < refs.size(); ++i) {
        if (ownerKey(refs[i]) < ownerKey(refs[owner]))
            owner = i;
    }
    return owner;
}

/**
 * Collapse one frame's references and pass each surviving guest page
 * to @p visit(ref, is_owner, guest_pages). A single reference is its
 * own owner and needs no copy; a shared frame is collapsed in the
 * reused @p scratch.
 */
template <typename Visit>
void
forEachGuestPage(std::span<const FrameRef> refs,
                 std::vector<FrameRef> &scratch, Visit &&visit)
{
    jtps_assert(!refs.empty());
    if (refs.size() == 1) {
        visit(refs[0], true, std::size_t{1});
        return;
    }
    scratch.assign(refs.begin(), refs.end());
    const std::size_t owner = collapseToGuestPages(scratch);
    for (std::size_t i = 0; i < scratch.size(); ++i)
        visit(scratch[i], i == owner, scratch.size());
}

} // namespace

OwnerAccounting::OwnerAccounting(const Snapshot &snap)
{
    resident_frames_ = snap.totalResidentFrames;
    overhead_frames_ = snap.overheadFrames;

    std::vector<FrameRef> scratch;
    // Consecutive references mostly come from one process: keep its
    // slot instead of looking it up again (map nodes never move).
    std::pair<VmId, Pid> key{invalidVm, invalidPid};
    ProcessUsage *pu = nullptr;
    for (std::size_t f = 0; f < snap.frameCount(); ++f) {
        forEachGuestPage(
            snap.frameRefs(f), scratch,
            [&](const FrameRef &ref, bool is_owner, std::size_t) {
                if (pu == nullptr || key.first != ref.vm ||
                    key.second != ref.pid) {
                    key = {ref.vm, ref.pid};
                    pu = &usage_[key];
                }
                pu->isJava = ref.isJava;
                const auto cat = static_cast<std::size_t>(ref.category);
                if (is_owner)
                    pu->owned[cat] += pageSize;
                else
                    pu->shared[cat] += pageSize;
            });
        attributed_ += pageSize;
    }

    for (std::uint64_t count : overhead_frames_)
        attributed_ += pagesToBytes(count);
}

const ProcessUsage &
OwnerAccounting::usage(VmId vm, Pid pid) const
{
    auto it = usage_.find({vm, pid});
    jtps_assert(it != usage_.end());
    return it->second;
}

bool
OwnerAccounting::hasProcess(VmId vm, Pid pid) const
{
    return usage_.count({vm, pid}) != 0;
}

VmBreakdown
OwnerAccounting::vmBreakdown(VmId vm) const
{
    VmBreakdown bd;
    for (const auto &[key, pu] : usage_) {
        if (key.first != vm)
            continue;
        if (key.second == 0) {
            bd.kernel += pu.ownedTotal();
            bd.savingKernel += pu.sharedTotal();
        } else if (pu.isJava) {
            bd.java += pu.ownedTotal();
            bd.savingJava += pu.sharedTotal();
        } else {
            bd.otherUser += pu.ownedTotal();
            bd.savingOther += pu.sharedTotal();
        }
    }
    if (vm < overhead_frames_.size())
        bd.vmSelf = pagesToBytes(overhead_frames_[vm]);
    return bd;
}

PssAccounting::PssAccounting(const Snapshot &snap)
{
    std::vector<FrameRef> scratch;
    std::pair<VmId, Pid> key{invalidVm, invalidPid};
    double *slot = nullptr;
    for (std::size_t f = 0; f < snap.frameCount(); ++f) {
        forEachGuestPage(
            snap.frameRefs(f), scratch,
            [&](const FrameRef &ref, bool, std::size_t pages) {
                if (slot == nullptr || key.first != ref.vm ||
                    key.second != ref.pid) {
                    key = {ref.vm, ref.pid};
                    slot = &pss_[key];
                }
                *slot += static_cast<double>(pageSize) / pages;
            });
        total_ += pageSize;
    }
    for (std::uint64_t count : snap.overheadFrames)
        total_ += static_cast<double>(pagesToBytes(count));
}

double
PssAccounting::pss(VmId vm, Pid pid) const
{
    auto it = pss_.find({vm, pid});
    return it == pss_.end() ? 0.0 : it->second;
}

} // namespace jtps::analysis
