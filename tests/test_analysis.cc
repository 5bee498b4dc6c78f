/**
 * @file
 * Unit tests for the forensics walk and the two accounting schemes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "analysis/accounting.hh"
#include "analysis/dump_format.hh"
#include "analysis/forensics.hh"
#include "analysis/report.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using analysis::FrameRef;
using analysis::OwnerAccounting;
using analysis::PssAccounting;
using analysis::Snapshot;
using guest::FileImage;
using guest::GuestOs;
using guest::MemCategory;
using guest::Vma;
using hv::KvmHypervisor;
using mem::PageData;

namespace
{

struct AnalysisFixture : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<KvmHypervisor> hv;
    std::vector<std::unique_ptr<GuestOs>> guests;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 512 * MiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<KvmHypervisor>(host_cfg, stats);
    }

    GuestOs &
    addGuest(Bytes overhead = 0)
    {
        const VmId id = hv->createVm(
            "vm" + std::to_string(guests.size()), 64 * MiB, overhead);
        guests.push_back(std::make_unique<GuestOs>(
            *hv, id, "vm" + std::to_string(id), 1000 + id));
        return *guests.back();
    }

    Snapshot
    capture(unsigned threads = 1, StatSet *walk_stats = nullptr)
    {
        std::vector<const GuestOs *> ptrs;
        for (const auto &g : guests)
            ptrs.push_back(g.get());
        return analysis::captureSnapshot(*hv, ptrs, threads, walk_stats);
    }

    /** Three guests with shared and private content, overhead frames
     *  and KSM sharing in play, so the walk sees every reference shape. */
    void
    buildSharedGuests()
    {
        for (int i = 0; i < 3; ++i) {
            GuestOs &os = addGuest(64 * KiB);
            Pid java = os.spawn("java", true);
            Vma *heap = os.mmapAnon(java, 256 * KiB, MemCategory::JavaHeap,
                                    "heap");
            for (std::uint64_t p = 0; p < heap->numPages; ++p)
                os.writePage(heap, p, PageData::filled(p % 5, p % 3));
            Pid d = os.spawn("daemon", false);
            Vma *w = os.mmapAnon(d, 64 * KiB, MemCategory::JvmWork, "w");
            for (std::uint64_t p = 0; p < w->numPages; ++p)
                os.writePage(w, p, PageData::filled(40 + i, p));
            FileImage lib = FileImage::shared("/lib.so", 16 * KiB);
            Vma *code = os.mmapFile(java, lib, MemCategory::Code);
            for (std::uint64_t p = 0; p < code->numPages; ++p)
                os.touch(code, p);
        }
        hv->collapseIdenticalPages();
    }
};

} // namespace

TEST_F(AnalysisFixture, WalkFindsResidentPagesOnly)
{
    GuestOs &os = addGuest();
    Pid pid = os.spawn("p", false);
    Vma *vma = os.mmapAnon(pid, 64 * KiB, MemCategory::JvmWork, "x");
    os.writeWord(vma, 0, 0, 1);
    os.writeWord(vma, 5, 0, 1);

    Snapshot snap = capture();
    EXPECT_EQ(snap.frameCount(), 2u);
    EXPECT_EQ(snap.totalResidentFrames, 2u);
}

TEST_F(AnalysisFixture, ConservationOwnerOriented)
{
    GuestOs &a = addGuest(1 * MiB);
    GuestOs &b = addGuest(1 * MiB);
    guest::KernelConfig k;
    k.textBytes = 1 * MiB;
    k.dataBytes = 512 * KiB;
    k.slabBytes = 512 * KiB;
    k.sharedBootCacheBytes = 1 * MiB;
    k.privateBootCacheBytes = 1 * MiB;
    a.bootKernel(k);
    b.bootKernel(k);
    a.spawnDaemon("d", 256 * KiB, 256 * KiB);
    b.spawnDaemon("d", 256 * KiB, 256 * KiB);
    hv->collapseIdenticalPages();

    Snapshot snap = capture();
    OwnerAccounting acct(snap);
    // Every resident byte is attributed exactly once.
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());

    // VM rollups also sum to the total.
    Bytes rollup = 0;
    for (VmId v = 0; v < 2; ++v)
        rollup += acct.vmBreakdown(v).usageTotal();
    EXPECT_EQ(rollup, acct.residentBytes());
}

TEST_F(AnalysisFixture, ConservationPss)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();
    guest::KernelConfig k;
    k.textBytes = 512 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 512 * KiB;
    k.privateBootCacheBytes = 256 * KiB;
    a.bootKernel(k);
    b.bootKernel(k);
    hv->collapseIdenticalPages();

    PssAccounting pss(capture());
    double sum = 0;
    for (const auto &[key, v] : pss.processes())
        sum += v;
    EXPECT_NEAR(sum, static_cast<double>(hv->residentBytes()), 1.0);
}

TEST_F(AnalysisFixture, JavaProcessWinsOwnership)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();

    // A Java process in VM1 (high pid) and a daemon in VM0 (low pid)
    // map identical content; after TPS the Java process must own it.
    Pid daemon = a.spawn("daemon", false);
    Pid extra = b.spawn("filler", false);
    (void)extra;
    Pid java = b.spawn("java", true);

    Vma *va = a.mmapAnon(daemon, 16 * KiB, MemCategory::OtherProcess, "x");
    Vma *vb = b.mmapAnon(java, 16 * KiB, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 4; ++i) {
        a.writePage(va, i, PageData::filled(77, i));
        b.writePage(vb, i, PageData::filled(77, i));
    }
    hv->collapseIdenticalPages();

    OwnerAccounting acct(capture());
    const auto &java_usage = acct.usage(b.vmId(), java);
    const auto &daemon_usage = acct.usage(a.vmId(), daemon);
    EXPECT_EQ(java_usage.ownedTotal(), 16 * KiB);
    EXPECT_EQ(java_usage.sharedTotal(), 0u);
    EXPECT_EQ(daemon_usage.ownedTotal(), 0u);
    EXPECT_EQ(daemon_usage.sharedTotal(), 16 * KiB);
}

TEST_F(AnalysisFixture, SmallestPidWinsAmongJava)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();
    Pid filler = a.spawn("filler", false);
    (void)filler;
    Pid java_a = a.spawn("java", true); // pid 2
    Pid java_b = b.spawn("java", true); // pid 1

    Vma *va = a.mmapAnon(java_a, 4 * KiB, MemCategory::JavaHeap, "h");
    Vma *vb = b.mmapAnon(java_b, 4 * KiB, MemCategory::JavaHeap, "h");
    a.writePage(va, 0, PageData::filled(5, 5));
    b.writePage(vb, 0, PageData::filled(5, 5));
    hv->collapseIdenticalPages();

    OwnerAccounting acct(capture());
    EXPECT_EQ(acct.usage(b.vmId(), java_b).ownedTotal(), 4 * KiB);
    EXPECT_EQ(acct.usage(a.vmId(), java_a).sharedTotal(), 4 * KiB);
}

TEST_F(AnalysisFixture, IntraVmAliasCountsOnce)
{
    GuestOs &os = addGuest();
    // A file page mapped by a process AND held in the kernel page
    // cache: one guest page, one attribution (to the process).
    Pid pid = os.spawn("p", false);
    FileImage f = FileImage::shared("/lib.so", 4 * KiB);
    Vma *vma = os.mmapFile(pid, f, MemCategory::Code);
    os.touch(vma, 0);

    OwnerAccounting acct(capture());
    const auto &proc = acct.usage(os.vmId(), pid);
    EXPECT_EQ(proc.ownedTotal(), 4 * KiB);
    EXPECT_EQ(proc.sharedTotal(), 0u);
    // The kernel's cache mapping of the same guest page adds nothing.
    if (acct.hasProcess(os.vmId(), 0)) {
        EXPECT_EQ(acct.usage(os.vmId(), 0).ownedTotal() +
                      acct.usage(os.vmId(), 0).sharedTotal(),
                  0u);
    }
    // Conservation still holds.
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());
}

TEST_F(AnalysisFixture, SelfDeduplicationCountsAsSaving)
{
    GuestOs &os = addGuest();
    Pid pid = os.spawn("p", true);
    Vma *vma = os.mmapAnon(pid, 16 * KiB, MemCategory::JavaHeap, "h");
    for (std::uint64_t i = 0; i < 4; ++i)
        os.writePage(vma, i, PageData::zero());
    hv->collapseIdenticalPages();
    EXPECT_EQ(hv->residentFrames(), 1u);

    OwnerAccounting acct(capture());
    const auto &pu = acct.usage(os.vmId(), pid);
    EXPECT_EQ(pu.ownedTotal(), 4 * KiB);
    EXPECT_EQ(pu.sharedTotal(), 12 * KiB);
}

TEST_F(AnalysisFixture, VmOverheadAttributedToVmItself)
{
    addGuest(2 * MiB);
    OwnerAccounting acct(capture());
    EXPECT_EQ(acct.vmBreakdown(0).vmSelf, 2 * MiB);
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());
}

TEST_F(AnalysisFixture, ReportRenderersProduceOutput)
{
    GuestOs &os = addGuest(1 * MiB);
    Pid java = os.spawn("java", true);
    Vma *vma = os.mmapAnon(java, 64 * KiB, MemCategory::JavaHeap, "h");
    for (std::uint64_t i = 0; i < 16; ++i)
        os.writePage(vma, i, PageData::filled(1, i));

    OwnerAccounting acct(capture());
    std::string vm_report =
        analysis::renderVmBreakdownReport(acct, {"VM1"});
    EXPECT_NE(vm_report.find("VM1"), std::string::npos);
    EXPECT_NE(vm_report.find("Java"), std::string::npos);

    std::vector<analysis::JavaProcRow> rows = {{"JVM1", 0, java}};
    std::string java_report =
        analysis::renderJavaBreakdownReport(acct, rows);
    EXPECT_NE(java_report.find("Java heap"), std::string::npos);
    EXPECT_NE(java_report.find("JVM1"), std::string::npos);

    EXPECT_NE(analysis::vmBreakdownCsv(acct, {"VM1"}).find("vm,"),
              std::string::npos);
    EXPECT_NE(analysis::javaBreakdownCsv(acct, rows).find("process,"),
              std::string::npos);
}

TEST_F(AnalysisFixture, SwappedPagesAreNotPhysicalUsage)
{
    // Tiny host: force some of the guest's pages out, then verify the
    // walk skips them.
    StatSet s2;
    hv::HostConfig tiny;
    tiny.ramBytes = 8 * pageSize;
    tiny.reserveBytes = 0;
    KvmHypervisor small_hv(tiny, s2);
    VmId id = small_hv.createVm("vm", 1 * MiB, 0);
    GuestOs os(small_hv, id, "vm", 5);
    Pid pid = os.spawn("p", false);
    Vma *vma = os.mmapAnon(pid, 12 * pageSize, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 12; ++i)
        os.writePage(vma, i, PageData::filled(1, i));

    std::vector<const GuestOs *> ptrs = {&os};
    Snapshot snap = analysis::captureSnapshot(small_hv, ptrs);
    EXPECT_EQ(snap.frameCount(), 8u);
    OwnerAccounting acct(snap);
    EXPECT_EQ(acct.attributedBytes(), 8 * pageSize);
}

TEST_F(AnalysisFixture, ParallelWalkIsIdenticalToSerial)
{
    buildSharedGuests();

    const Snapshot serial = capture(1);
    // The flat layout's own invariants: strictly ascending frames, one
    // row boundary more than frames, no empty row, and references in
    // walk order (guests in VM order) within each frame.
    ASSERT_EQ(serial.offsets.size(), serial.frameCount() + 1);
    EXPECT_EQ(serial.offsets.front(), 0u);
    EXPECT_EQ(serial.offsets.back(), serial.refs.size());
    EXPECT_EQ(serial.frameCount(),
              serial.totalResidentFrames - 3 * (64 * KiB / pageSize));
    bool saw_shared = false;
    for (std::size_t f = 0; f < serial.frameCount(); ++f) {
        if (f > 0) {
            ASSERT_LT(serial.hfns[f - 1], serial.hfns[f]);
        }
        const auto refs = serial.frameRefs(f);
        ASSERT_FALSE(refs.empty());
        saw_shared = saw_shared || refs.size() > 1;
        for (std::size_t r = 1; r < refs.size(); ++r)
            ASSERT_LE(refs[r - 1].vm, refs[r].vm);
    }
    EXPECT_TRUE(saw_shared);

    for (unsigned width : {2u, 4u}) {
        SCOPED_TRACE(width);
        StatSet walk_stats;
        const Snapshot par = capture(width, &walk_stats);
        EXPECT_EQ(walk_stats.get("forensics.walk_shards"), 3u);
        EXPECT_EQ(par.hfns, serial.hfns);
        EXPECT_EQ(par.offsets, serial.offsets);
        EXPECT_EQ(par.refs, serial.refs);
        EXPECT_EQ(par.overheadFrames, serial.overheadFrames);
        EXPECT_EQ(par.totalResidentFrames, serial.totalResidentFrames);
        EXPECT_EQ(par.vmCount, serial.vmCount);
    }
}

TEST_F(AnalysisFixture, AccountingIsUnchangedAcrossWalkWidths)
{
    buildSharedGuests();
    const Snapshot s1 = capture(1);
    const OwnerAccounting o1(s1);
    const PssAccounting p1(s1);
    EXPECT_EQ(o1.attributedBytes(), o1.residentBytes());

    for (unsigned width : {2u, 4u}) {
        SCOPED_TRACE(width);
        const Snapshot sn = capture(width);
        const OwnerAccounting on(sn);
        EXPECT_EQ(on.attributedBytes(), o1.attributedBytes());
        EXPECT_EQ(on.residentBytes(), o1.residentBytes());
        EXPECT_EQ(on.processes(), o1.processes());

        // PSS sums are floating point; the same snapshot summed in the
        // same hfn order is bit-identical, not merely close.
        const PssAccounting pn(sn);
        EXPECT_EQ(pn.totalBytes(), p1.totalBytes());
        EXPECT_EQ(pn.processes(), p1.processes());
    }
}

TEST_F(AnalysisFixture, DumpRoundTripYieldsIdenticalArrays)
{
    buildSharedGuests();
    const Snapshot snap = capture();
    const Snapshot parsed = analysis::parseDump(analysis::writeDump(snap));
    EXPECT_EQ(parsed.hfns, snap.hfns);
    EXPECT_EQ(parsed.offsets, snap.offsets);
    EXPECT_EQ(parsed.refs, snap.refs);
    EXPECT_EQ(parsed.overheadFrames, snap.overheadFrames);
    EXPECT_EQ(parsed.totalResidentFrames, snap.totalResidentFrames);
    EXPECT_EQ(parsed.vmCount, snap.vmCount);
}

TEST(AnalysisEmpty, DefaultSnapshotAccountsToZero)
{
    const Snapshot empty;
    EXPECT_EQ(empty.frameCount(), 0u);
    EXPECT_EQ(empty.offsets, std::vector<std::size_t>{0});
    const OwnerAccounting owner(empty);
    EXPECT_EQ(owner.attributedBytes(), 0u);
    EXPECT_TRUE(owner.processes().empty());
    EXPECT_EQ(PssAccounting(empty).totalBytes(), 0.0);
}

namespace
{

using ProcKey = std::pair<VmId, Pid>;
using FrameMap = std::map<Hfn, std::vector<FrameRef>>;

/** The accountings as the paper states them, one frame at a time,
 *  over a plain map of reference vectors. */
struct NaiveAccounting
{
    std::map<ProcKey, analysis::ProcessUsage> usage;
    std::map<ProcKey, double> pss;
    Bytes attributed = 0;
    double pssTotal = 0;

    NaiveAccounting(const FrameMap &frames,
                    const std::vector<std::uint64_t> &overhead)
    {
        // Representative of a guest page: a Java mapper, else a user
        // process, else the kernel; the smallest pid among equals.
        auto rank = [](const FrameRef &r) {
            return std::make_pair(r.isJava ? 0 : (r.pid > 0 ? 1 : 2),
                                  r.pid);
        };
        // Owner among guest pages: Java first, then the smallest pid,
        // vm, and (one process reaching the frame twice) gfn.
        auto owner_rank = [](const FrameRef &r) {
            return std::make_tuple(r.isJava ? 0 : 1, r.pid, r.vm, r.gfn);
        };
        for (const auto &[hfn, refs] : frames) {
            std::map<std::pair<VmId, Gfn>, FrameRef> pages;
            for (const FrameRef &r : refs) {
                auto [it, fresh] = pages.try_emplace({r.vm, r.gfn}, r);
                if (!fresh && rank(r) < rank(it->second))
                    it->second = r;
            }
            const FrameRef *owner = nullptr;
            for (const auto &[page, r] : pages) {
                if (owner == nullptr || owner_rank(r) < owner_rank(*owner))
                    owner = &r;
            }
            for (const auto &[page, r] : pages) {
                analysis::ProcessUsage &pu = usage[{r.vm, r.pid}];
                pu.isJava = r.isJava;
                const auto cat = static_cast<std::size_t>(r.category);
                (&r == owner ? pu.owned : pu.shared)[cat] += pageSize;
                pss[{r.vm, r.pid}] +=
                    static_cast<double>(pageSize) / pages.size();
            }
            attributed += pageSize;
            pssTotal += pageSize;
        }
        for (std::uint64_t count : overhead) {
            attributed += pagesToBytes(count);
            pssTotal += static_cast<double>(pagesToBytes(count));
        }
    }
};

/** Which reference shapes a random snapshot ended up containing. */
struct ShapeCoverage
{
    std::size_t singleRef = 0;     //!< frames with one reference
    std::size_t multiRef = 0;      //!< frames with several references
    std::size_t intraAlias = 0;    //!< guest pages with several mappers
    std::size_t twoGfns = 0;       //!< a process reaching a frame twice
    std::size_t samePidVms = 0;    //!< one pid from two VMs in a frame
};

/**
 * A random snapshot in the shape the walk produces: every (vm, gfn)
 * backs exactly one frame, each process has a fixed Java flag, pid 0
 * is the non-Java kernel, and pids repeat across VMs.
 */
FrameMap
randomFrames(std::mt19937_64 &rng, std::size_t vms, ShapeCoverage &cov)
{
    constexpr Pid pids = 5;
    std::vector<std::vector<bool>> is_java(vms, std::vector<bool>(pids));
    for (auto &vm : is_java)
        for (Pid p = 1; p < pids; ++p)
            vm[p] = rng() % 3 == 0;
    std::vector<Gfn> next_gfn(vms, 0);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    auto ref = [&](VmId vm, Gfn gfn, Pid pid) {
        return FrameRef{vm, gfn, pid, is_java[vm][pid],
                        static_cast<MemCategory>(
                            pick(guest::numMemCategories))};
    };

    FrameMap frames;
    Hfn hfn = pick(8);
    for (int f = 0; f < 400; ++f, hfn += 1 + pick(40)) {
        std::vector<FrameRef> &refs = frames[hfn];
        const std::size_t pages = pick(3) == 0 ? 1 : 1 + pick(4);
        for (std::size_t p = 0; p < pages; ++p) {
            VmId vm = static_cast<VmId>(pick(vms));
            std::vector<Pid> mappers;
            // Sometimes the same process maps this frame through a
            // second guest page of the same VM.
            if (p > 0 && pick(3) == 0) {
                vm = refs.back().vm;
                mappers.push_back(refs.back().pid);
            }
            const Gfn gfn = next_gfn[vm]++;
            const std::size_t extra = pick(4) == 0 ? 1 + pick(2) : 0;
            while (mappers.size() < 1 + extra) {
                const Pid pid = static_cast<Pid>(pick(pids));
                if (std::find(mappers.begin(), mappers.end(), pid) ==
                    mappers.end())
                    mappers.push_back(pid);
            }
            for (Pid pid : mappers)
                refs.push_back(ref(vm, gfn, pid));
        }
        std::shuffle(refs.begin(), refs.end(), rng);

        (refs.size() == 1 ? cov.singleRef : cov.multiRef)++;
        std::map<std::pair<VmId, Gfn>, int> per_page;
        std::map<ProcKey, std::set<Gfn>> per_proc;
        std::map<Pid, std::set<VmId>> per_pid;
        for (const FrameRef &r : refs) {
            ++per_page[{r.vm, r.gfn}];
            per_proc[{r.vm, r.pid}].insert(r.gfn);
            per_pid[r.pid].insert(r.vm);
        }
        for (const auto &[page, n] : per_page)
            cov.intraAlias += n > 1;
        for (const auto &[proc, gfns] : per_proc)
            cov.twoGfns += gfns.size() > 1;
        for (const auto &[pid, in_vms] : per_pid)
            cov.samePidVms += in_vms.size() > 1;
    }
    return frames;
}

} // namespace

TEST(AccountingProperty, FlatAccountingMatchesNaiveOracle)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        const std::size_t vms = 2 + rng() % 3;
        ShapeCoverage cov;
        const FrameMap frames = randomFrames(rng, vms, cov);
        EXPECT_GT(cov.singleRef, 0u);
        EXPECT_GT(cov.multiRef, 0u);
        EXPECT_GT(cov.intraAlias, 0u);
        EXPECT_GT(cov.twoGfns, 0u);
        EXPECT_GT(cov.samePidVms, 0u);

        Snapshot snap;
        snap.vmCount = vms;
        for (std::size_t v = 0; v < vms; ++v)
            snap.overheadFrames.push_back(rng() % 16);
        snap.totalResidentFrames = frames.size();
        for (std::uint64_t count : snap.overheadFrames)
            snap.totalResidentFrames += count;
        for (const auto &[hfn, refs] : frames) {
            snap.hfns.push_back(hfn);
            snap.refs.insert(snap.refs.end(), refs.begin(), refs.end());
            snap.offsets.push_back(snap.refs.size());
        }

        const NaiveAccounting oracle(frames, snap.overheadFrames);
        const OwnerAccounting owner(snap);
        EXPECT_EQ(owner.processes(), oracle.usage);
        EXPECT_EQ(owner.attributedBytes(), oracle.attributed);
        EXPECT_EQ(owner.attributedBytes(), owner.residentBytes());

        // Both sum the same per-page shares frame by frame in
        // ascending hfn order, so the doubles match exactly.
        const PssAccounting pss(snap);
        EXPECT_EQ(pss.processes(), oracle.pss);
        EXPECT_EQ(pss.totalBytes(), oracle.pssTotal);
    }
}
