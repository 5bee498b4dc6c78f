/**
 * @file
 * Property-based tests (parameterized sweeps): the hypervisor + KSM
 * stack is driven with randomized operation streams and checked against
 * a shadow model, across many seeds.
 *
 * Invariants (DESIGN.md §7):
 *  - a guest always reads back exactly what it last wrote, no matter
 *    what merging/COW/eviction happened in between;
 *  - structural consistency (refcounts, counters) holds at every
 *    checkpoint;
 *  - owner-oriented attribution conserves resident bytes.
 */

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "core/scenario.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"

using namespace jtps;
using hv::KvmHypervisor;
using ksm::KsmConfig;
using ksm::KsmScanner;
using mem::PageData;

namespace
{

class HvFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(HvFuzz, ReadYourWritesUnderMergeCowEvict)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 64 * pageSize; // tight: forces eviction
    host.reserveBytes = 0;
    KvmHypervisor hv(host, stats);

    constexpr int num_vms = 3;
    constexpr Gfn pages_per_vm = 40;
    for (int v = 0; v < num_vms; ++v)
        hv.createVm("vm" + std::to_string(v), pages_per_vm * pageSize, 0);

    KsmConfig kcfg;
    kcfg.pagesToScan = 1000;
    KsmScanner scanner(hv, kcfg, stats);

    // Shadow model: what each guest page must contain.
    std::map<std::pair<VmId, Gfn>, PageData> shadow;

    for (int step = 0; step < 3000; ++step) {
        const VmId vm = rng.nextBelow(num_vms);
        const Gfn gfn = rng.nextBelow(pages_per_vm);
        const int op = rng.nextBelow(100);

        if (op < 45) {
            // Write a page; small content space => many duplicates.
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            hv.writePage(vm, gfn, d);
            shadow[{vm, gfn}] = d;
        } else if (op < 60) {
            // Word write.
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            const std::uint64_t value = rng.nextBelow(4);
            hv.writeWord(vm, gfn, sector, value);
            shadow[{vm, gfn}].word[sector] = value;
        } else if (op < 75) {
            // Read and verify immediately.
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            auto it = shadow.find({vm, gfn});
            const std::uint64_t expect =
                it == shadow.end() ? 0 : it->second.word[sector];
            ASSERT_EQ(hv.readWord(vm, gfn, sector), expect)
                << "seed=" << seed << " step=" << step;
        } else if (op < 85) {
            hv.discardPage(vm, gfn);
            shadow.erase({vm, gfn});
        } else if (op < 95) {
            scanner.scanBatch();
        } else {
            hv.touchPage(vm, gfn);
        }

        if (step % 500 == 0)
            hv.checkConsistency();
    }

    // Final full verification of every guest page.
    for (int v = 0; v < num_vms; ++v) {
        for (Gfn g = 0; g < pages_per_vm; ++g) {
            auto it = shadow.find({static_cast<VmId>(v), g});
            for (unsigned s = 0; s < mem::sectorsPerPage; ++s) {
                const std::uint64_t expect =
                    it == shadow.end() ? 0 : it->second.word[s];
                ASSERT_EQ(hv.readWord(v, g, s), expect)
                    << "seed=" << seed << " vm=" << v << " gfn=" << g;
            }
        }
    }
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

namespace
{

class SharingCounterFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(SharingCounterFuzz, CountersMatchFullRecountUnderMergeCowFree)
{
    // The O(1) pages_shared / pages_sharing counters are bumped at
    // every ksmMakeStable / ksmMergeInto / COW break / unmap / evict;
    // after a randomized workload they must equal what a full
    // frame-table walk reports.
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 96 * pageSize; // tight: eviction hits shared frames
    host.reserveBytes = 0;
    KvmHypervisor hv(host, stats);

    constexpr int num_vms = 3;
    constexpr Gfn pages_per_vm = 48;
    for (int v = 0; v < num_vms; ++v)
        hv.createVm("vm" + std::to_string(v), pages_per_vm * pageSize, 0);

    KsmConfig kcfg;
    kcfg.pagesToScan = 1000;
    KsmScanner scanner(hv, kcfg, stats);

    auto recount = [&](std::uint64_t &shared, std::uint64_t &sharing) {
        shared = sharing = 0;
        hv.frames().forEachResident(
            [&](Hfn, const mem::Frame &f) {
                if (f.ksmStable) {
                    ++shared;
                    sharing += f.refcount - 1;
                }
            });
    };

    for (int step = 0; step < 2500; ++step) {
        const VmId vm = rng.nextBelow(num_vms);
        const Gfn gfn = rng.nextBelow(pages_per_vm);
        const int op = rng.nextBelow(100);

        if (op < 40) {
            // Small content space => many mergeable duplicates.
            hv.writePage(vm, gfn, PageData::filled(rng.nextBelow(5), 0));
        } else if (op < 55) {
            // Word write: COW-breaks shared pages.
            hv.writeWord(vm, gfn, rng.nextBelow(mem::sectorsPerPage),
                         rng.nextBelow(3));
        } else if (op < 70) {
            hv.discardPage(vm, gfn);
        } else if (op < 90) {
            scanner.scanBatch();
        } else {
            hv.touchPage(vm, gfn);
        }

        if (step % 250 == 0) {
            std::uint64_t shared = 0, sharing = 0;
            recount(shared, sharing);
            ASSERT_EQ(scanner.pagesShared(), shared)
                << "seed=" << seed << " step=" << step;
            ASSERT_EQ(scanner.pagesSharing(), sharing)
                << "seed=" << seed << " step=" << step;
        }
    }

    scanner.runToQuiescence();
    std::uint64_t shared = 0, sharing = 0;
    recount(shared, sharing);
    EXPECT_EQ(scanner.pagesShared(), shared);
    EXPECT_EQ(scanner.pagesSharing(), sharing);
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharingCounterFuzz,
                         ::testing::Values(4, 9, 16, 25, 36, 49));

namespace
{

class CollapseFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(CollapseFuzz, CollapsePreservesContentAndConserves)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 16 * MiB;
    host.reserveBytes = 0;
    hv::PowerVmHypervisor hv(host, stats);

    constexpr int num_vms = 4;
    constexpr Gfn pages = 64;
    std::map<std::pair<VmId, Gfn>, PageData> shadow;
    for (int v = 0; v < num_vms; ++v) {
        hv.createVm("vm" + std::to_string(v), pages * pageSize);
        for (Gfn g = 0; g < pages; ++g) {
            PageData d = PageData::filled(rng.nextBelow(10), 0);
            hv.writePage(v, g, d);
            shadow[{static_cast<VmId>(v), g}] = d;
        }
    }

    const std::uint64_t before = hv.residentFrames();
    const std::uint64_t merged = hv.runTps();
    EXPECT_EQ(hv.residentFrames(), before - merged);
    // At most 10 distinct contents remain.
    EXPECT_LE(hv.residentFrames(), 10u);
    hv.checkConsistency();

    for (auto &[key, data] : shadow) {
        const PageData *p = hv.peek(key.first, key.second);
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(*p, data);
    }

    // Post-collapse writes still isolate correctly.
    hv.writeWord(0, 0, 0, 424242);
    for (int v = 1; v < num_vms; ++v) {
        const std::uint64_t expect =
            shadow[std::make_pair(static_cast<VmId>(v), Gfn{0})].word[0];
        EXPECT_EQ(hv.peek(v, 0)->word[0], expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseFuzz,
                         ::testing::Values(7, 11, 19, 23, 42));

namespace
{

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

} // namespace

TEST_P(ConservationSweep, AttributionConservesResidentBytes)
{
    const auto [num_vms, collapse] = GetParam();
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 2ULL * GiB;
    host.reserveBytes = 0;
    KvmHypervisor hv(host, stats);

    std::vector<std::unique_ptr<guest::GuestOs>> guests;
    guest::KernelConfig k;
    k.textBytes = 512 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 1 * MiB;
    k.privateBootCacheBytes = 512 * KiB;

    for (int v = 0; v < num_vms; ++v) {
        VmId id = hv.createVm("vm" + std::to_string(v), 32 * MiB,
                              256 * KiB);
        guests.push_back(std::make_unique<guest::GuestOs>(
            hv, id, "vm", 100 + v));
        guests.back()->bootKernel(k);
        guests.back()->spawnDaemon("d", 128 * KiB, 128 * KiB);
        Pid java = guests.back()->spawn("java", true);
        auto *vma = guests.back()->mmapAnon(
            java, 2 * MiB, guest::MemCategory::JavaHeap, "heap");
        for (std::uint64_t i = 0; i < vma->numPages; ++i) {
            guests.back()->writePage(
                vma, i, PageData::filled(i % 7, i % 3));
        }
    }
    if (collapse)
        hv.collapseIdenticalPages();

    std::vector<const guest::GuestOs *> ptrs;
    for (auto &g : guests)
        ptrs.push_back(g.get());
    analysis::Snapshot snap = analysis::captureSnapshot(hv, ptrs);
    analysis::OwnerAccounting owner(snap);
    EXPECT_EQ(owner.attributedBytes(), owner.residentBytes());
    EXPECT_EQ(owner.residentBytes(), hv.residentBytes());

    Bytes rollup = 0;
    for (int v = 0; v < num_vms; ++v)
        rollup += owner.vmBreakdown(v).usageTotal();
    EXPECT_EQ(rollup, owner.residentBytes());

    analysis::PssAccounting pss(snap);
    EXPECT_NEAR(pss.totalBytes(),
                static_cast<double>(hv.residentBytes()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(false, true)));

namespace
{

class GuestSwapFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(GuestSwapFuzz, ContentSurvivesGuestAndHostPressure)
{
    // Both paging layers active at once: a guest with less RAM than
    // its working set, on a host with less RAM than the guest. Reads
    // must always return the last written value.
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 32 * pageSize; // < guest RAM: host pages too
    host.reserveBytes = 0;
    KvmHypervisor hv(host, stats);
    VmId id = hv.createVm("vm", 40 * pageSize, 0);
    guest::GuestOs os(hv, id, "vm", seed);
    Pid pid = os.spawn("p", false);
    guest::Vma *vma = os.mmapAnon(pid, 64 * pageSize,
                                  guest::MemCategory::JvmWork, "ws");

    std::map<std::uint64_t, std::uint64_t> shadow; // page*8+sector -> v
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t page = rng.nextBelow(64);
        const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
        if (rng.bernoulli(0.6)) {
            const std::uint64_t value = rng.next();
            os.writeWord(vma, page, sector, value);
            shadow[page * 8 + sector] = value;
        } else {
            auto it = shadow.find(page * 8 + sector);
            const std::uint64_t expect =
                it == shadow.end() ? 0 : it->second;
            ASSERT_EQ(os.readWord(vma, page, sector), expect)
                << "seed=" << seed << " step=" << step;
        }
        if (step % 1000 == 0)
            hv.checkConsistency();
    }
    // The guest must actually have used its swap for this to be a
    // meaningful test.
    EXPECT_GT(os.guestSwapOuts(), 0u);
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestSwapFuzz,
                         ::testing::Values(3, 7, 31, 127, 8191));

namespace
{

/**
 * Two complete hypervisor + scanner stacks driven in lockstep with the
 * same operation stream: one scanner uses incremental (generation
 * gated) scanning, the other the from-scratch reference mode. Every
 * observable — merge counters, sharing totals, translations, page
 * contents — must stay identical, because skipping is gated only on
 * proofs (generation/epoch equality), never on heuristics.
 */
struct TwinStacks
{
    static constexpr int numVms = 3;
    static constexpr Gfn pagesPerVm = 48;

    StatSet inc_stats;
    StatSet ref_stats;
    TraceBuffer inc_trace;
    TraceBuffer ref_trace;
    KvmHypervisor inc_hv;
    KvmHypervisor ref_hv;
    KsmScanner inc_scanner;
    KsmScanner ref_scanner;

    static hv::HostConfig
    hostCfg(Bytes ram)
    {
        hv::HostConfig h;
        h.ramBytes = ram;
        h.reserveBytes = 0;
        return h;
    }

    static KsmConfig
    ksmCfg(bool incremental)
    {
        KsmConfig c;
        c.pagesToScan = 500;
        c.incrementalScan = incremental;
        return c;
    }

    explicit TwinStacks(Bytes ram)
        : TwinStacks(ram, ksmCfg(true), ksmCfg(false))
    {
    }

    /** Generalized twins: any two scanner configurations expected to
     *  behave byte-identically (e.g. parallel vs. serial scan). */
    TwinStacks(Bytes ram, const KsmConfig &inc_cfg,
               const KsmConfig &ref_cfg)
        : TwinStacks(hostCfg(ram), hostCfg(ram), inc_cfg, ref_cfg)
    {
    }

    /** Fully general twins: per-side host configuration too (the PML
     *  fuzzes give the log-driven side rings and the walker none). */
    TwinStacks(const hv::HostConfig &inc_host,
               const hv::HostConfig &ref_host, const KsmConfig &inc_cfg,
               const KsmConfig &ref_cfg)
        : inc_hv(inc_host, inc_stats), ref_hv(ref_host, ref_stats),
          inc_scanner(inc_hv, inc_cfg, inc_stats),
          ref_scanner(ref_hv, ref_cfg, ref_stats)
    {
        // Record both stacks' trace streams: merges, promotions, scan
        // boundaries, COW breaks and swap traffic must line up event
        // for event, not just in the totals.
        inc_trace.enable();
        ref_trace.enable();
        inc_hv.setTrace(&inc_trace);
        ref_hv.setTrace(&ref_trace);
        for (int v = 0; v < numVms; ++v) {
            inc_hv.createVm("vm" + std::to_string(v),
                            pagesPerVm * pageSize, 0);
            ref_hv.createVm("vm" + std::to_string(v),
                            pagesPerVm * pageSize, 0);
        }
    }

    void
    expectEqual(std::uint64_t seed, int step)
    {
        // Every counter the reference scanner maintains must match;
        // only the two skip-accounting counters may differ (they are
        // identically zero in reference mode).
        static const char *counters[] = {
            "ksm.stale_stable_nodes", "ksm.stale_unstable_nodes",
            "ksm.skipped_huge",       "ksm.not_calm",
            "ksm.stable_merges",      "ksm.unstable_promotions",
            "ksm.pages_visited",
        };
        for (const char *c : counters)
            ASSERT_EQ(inc_stats.get(c), ref_stats.get(c))
                << c << " seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.fullScans(), ref_scanner.fullScans())
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.pagesShared(), ref_scanner.pagesShared())
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.pagesSharing(), ref_scanner.pagesSharing())
            << "seed=" << seed << " step=" << step;
        for (int v = 0; v < numVms; ++v) {
            for (Gfn g = 0; g < pagesPerVm; ++g) {
                ASSERT_EQ(inc_hv.translate(v, g), ref_hv.translate(v, g))
                    << "seed=" << seed << " step=" << step << " vm=" << v
                    << " gfn=" << g;
                const PageData *pi = inc_hv.peek(v, g);
                const PageData *pr = ref_hv.peek(v, g);
                ASSERT_EQ(pi == nullptr, pr == nullptr)
                    << "seed=" << seed << " step=" << step << " vm=" << v
                    << " gfn=" << g;
                if (pi != nullptr) {
                    ASSERT_EQ(*pi, *pr)
                        << "seed=" << seed << " step=" << step
                        << " vm=" << v << " gfn=" << g;
                }
            }
        }
        inc_hv.checkConsistency();
        ref_hv.checkConsistency();

        // The trace streams must be identical event by event (ticks
        // are all zero here — no clock is wired — so this compares
        // type, subject and both payload arguments in record order).
        const auto &ei = inc_trace.events();
        const auto &er = ref_trace.events();
        ASSERT_EQ(ei.size(), er.size())
            << "trace length, seed=" << seed << " step=" << step;
        for (std::size_t i = 0; i < ei.size(); ++i) {
            ASSERT_TRUE(ei[i].type == er[i].type && ei[i].vm == er[i].vm &&
                        ei[i].arg0 == er[i].arg0 &&
                        ei[i].arg1 == er[i].arg1)
                << "trace event " << i << " differs, seed=" << seed
                << " step=" << step;
        }
    }

    /**
     * Full stat-registry equality, minus @p exempt counters. Both
     * scanners register every counter up front, so the key sets
     * always agree; this catches divergence in counters outside the
     * reference-maintained list too.
     */
    void
    expectRegistriesEqual(const std::vector<std::string> &exempt,
                          std::uint64_t seed)
    {
        auto a = inc_stats.counters();
        auto b = ref_stats.counters();
        ASSERT_EQ(a.size(), b.size()) << "seed=" << seed;
        for (const auto &[name, value] : a) {
            if (std::find(exempt.begin(), exempt.end(), name) !=
                exempt.end())
                continue;
            auto it = b.find(name);
            ASSERT_TRUE(it != b.end()) << name << " seed=" << seed;
            EXPECT_EQ(value, it->second) << name << " seed=" << seed;
        }
    }
};

void
driveTwins(TwinStacks &t, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const VmId vm = rng.nextBelow(TwinStacks::numVms);
        const Gfn gfn = rng.nextBelow(TwinStacks::pagesPerVm);
        const int op = rng.nextBelow(100);

        if (op < 40) {
            // Small content pool => merges, COW breaks, re-merges.
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            t.inc_hv.writePage(vm, gfn, d);
            t.ref_hv.writePage(vm, gfn, d);
        } else if (op < 55) {
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            const std::uint64_t value = rng.nextBelow(4);
            t.inc_hv.writeWord(vm, gfn, sector, value);
            t.ref_hv.writeWord(vm, gfn, sector, value);
        } else if (op < 67) {
            t.inc_hv.discardPage(vm, gfn);
            t.ref_hv.discardPage(vm, gfn);
        } else if (op < 80) {
            t.inc_scanner.scanBatch();
            t.ref_scanner.scanBatch();
        } else if (op < 90) {
            t.inc_hv.touchPage(vm, gfn);
            t.ref_hv.touchPage(vm, gfn);
        } else {
            const bool huge = rng.bernoulli(0.5);
            t.inc_hv.setHugePage(vm, gfn, huge);
            t.ref_hv.setHugePage(vm, gfn, huge);
        }

        if (step % 250 == 249) {
            ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, step));
        }
    }
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, steps));

    // Converge both and compare the quiescent state too: the last
    // passes are exactly the generation-skip-heavy ones.
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, -1));
}

class IncrementalEquivalenceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(IncrementalEquivalenceFuzz, MatchesReferenceScanner)
{
    const std::uint64_t seed = GetParam();
    TwinStacks t(2 * MiB); // ample RAM: no host paging
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    // The equivalence must not be vacuous: the fast path has to have
    // actually engaged — and never in the reference scanner.
    EXPECT_GT(t.inc_stats.get("ksm.pages_gen_skipped"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.pages_gen_skipped"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.digest_cache_hits"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceFuzz,
                         ::testing::Values(6, 28, 64, 256, 496, 8128));

namespace
{

class IncrementalEquivalencePagingFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(IncrementalEquivalencePagingFuzz, MatchesReferenceUnderHostPaging)
{
    const std::uint64_t seed = GetParam();
    // Host RAM below the guests' combined footprint: evictions and
    // swap-ins constantly retire and reincarnate frames, which is
    // exactly where stale-generation bugs would hide.
    TwinStacks t(100 * pageSize);
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2000));
    EXPECT_GT(t.inc_stats.get("ksm.pages_gen_skipped"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalencePagingFuzz,
                         ::testing::Values(17, 33, 65, 129, 257));

namespace
{

/** Scanner config for the parallel twin tests: incremental scanning at
 *  @p threads classify workers, with shards shrunk so even these tiny
 *  memories (3 VMs x 48 pages) fan out across several shards. */
KsmConfig
parallelKsmCfg(unsigned threads)
{
    KsmConfig c;
    c.pagesToScan = 500;
    c.incrementalScan = true;
    c.scanThreads = threads;
    c.scanShardPages = 16;
    return c;
}

/**
 * Thread counts to fuzz: {1, 2, 4}, plus JTPS_BENCH_THREADS when CI
 * sets it (the same env knob the bench sweeps honor), so the
 * determinism tests exercise whatever parallelism the host offers.
 */
std::vector<unsigned>
parallelThreadCounts()
{
    std::vector<unsigned> t{1, 2, 4};
    if (const char *env = std::getenv("JTPS_BENCH_THREADS")) {
        const unsigned n =
            static_cast<unsigned>(std::strtoul(env, nullptr, 10));
        if (n >= 1 && n <= 64 &&
            std::find(t.begin(), t.end(), n) == t.end())
            t.push_back(n);
    }
    return t;
}

/** The three counters only the two-phase (parallel) scan path moves;
 *  identically zero in any serial scanner. */
const std::vector<std::string> parallelOnlyCounters = {
    "ksm.scan_shards",
    "ksm.precheck_candidates",
    "ksm.commit_replays",
};

/**
 * Batch-kernel accounting follows the *window shapes*, which differ
 * between the serial visitor (per-VM, budget-bounded windows) and the
 * classify shards (windows restarting per shard span), and are zero in
 * the unbatched PML-serial pass. Exempt wherever the compared scanners
 * take different pipeline shapes — every value, merge, translation and
 * trace event must still match bit for bit. (Between two *parallel*
 * scanners the windows are fixed by scanShardPages, so these counters
 * are thread-count invariant and stay under the exact comparison.)
 */
const std::vector<std::string> batchShapeCounters = {
    "ksm.batch_kernel_pages",
    "ksm.batch_flushes",
};

std::vector<std::string>
plusBatchShape(std::vector<std::string> v)
{
    v.insert(v.end(), batchShapeCounters.begin(),
             batchShapeCounters.end());
    return v;
}

class ParallelScanEquivalenceFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(ParallelScanEquivalenceFuzz, MatchesSerialScanner)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());
    // inc side: parallel classify/commit scan; ref side: the serial
    // incremental scanner it must be byte-identical to.
    TwinStacks t(2 * MiB, parallelKsmCfg(threads),
                 TwinStacks::ksmCfg(true));
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(
        plusBatchShape(parallelOnlyCounters), seed));
    for (const auto &c : parallelOnlyCounters)
        EXPECT_EQ(t.ref_stats.get(c), 0u) << c;
    if (threads >= 2) {
        // Not vacuous: batches really were sharded out, and the
        // classify phase really fed the commit replay.
        EXPECT_GT(t.inc_stats.get("ksm.scan_shards"), 0u);
        EXPECT_GT(t.inc_stats.get("ksm.precheck_candidates"), 0u);
    } else {
        // scanThreads <= 1 must take the serial path bit for bit.
        for (const auto &c : parallelOnlyCounters)
            EXPECT_EQ(t.inc_stats.get(c), 0u) << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreads, ParallelScanEquivalenceFuzz,
    ::testing::Combine(::testing::Values(6, 256, 8128),
                       ::testing::ValuesIn(parallelThreadCounts())));

namespace
{

class ParallelScanPagingFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(ParallelScanPagingFuzz, MatchesSerialUnderHostPaging)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());
    // Host RAM below the guests' combined footprint: evictions
    // constantly retire and reincarnate frames between batches, the
    // regime where a stale classify verdict would be most tempting to
    // trust — the write-generation proof has to reject every one.
    TwinStacks t(100 * pageSize, parallelKsmCfg(threads),
                 TwinStacks::ksmCfg(true));
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2000));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(
        plusBatchShape(parallelOnlyCounters), seed));
    if (threads >= 2) {
        EXPECT_GT(t.inc_stats.get("ksm.scan_shards"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreads, ParallelScanPagingFuzz,
    ::testing::Combine(::testing::Values(17, 129),
                       ::testing::ValuesIn(parallelThreadCounts())));

namespace
{

class ParallelScanThreadInvarianceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(ParallelScanThreadInvarianceFuzz, TwoAndFourThreadsFullyIdentical)
{
    const std::uint64_t seed = GetParam();
    // Both sides take the two-phase path, at different widths. Here
    // nothing at all may differ — including the shard/candidate/replay
    // counters, whose values depend only on the (fixed) shard size and
    // the classified state, never on the thread count.
    TwinStacks t(2 * MiB, parallelKsmCfg(2), parallelKsmCfg(4));
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual({}, seed));
    EXPECT_GT(t.inc_stats.get("ksm.scan_shards"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelScanThreadInvarianceFuzz,
                         ::testing::Values(11, 77, 505));

namespace
{

/** Boot-storm-shaped prefill: every page written once from a small
 *  content pool (some left zero), so the scanners face a wall of
 *  cold, highly shareable pages — the regime the batch kernels
 *  target, with the zero fast path exercised alongside them. */
void
bootStormPrefill(TwinStacks &t, Rng &rng)
{
    for (int v = 0; v < TwinStacks::numVms; ++v) {
        for (Gfn g = 0; g < TwinStacks::pagesPerVm; ++g) {
            if (rng.bernoulli(0.15))
                continue; // leave zero
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            t.inc_hv.writePage(v, g, d);
            t.ref_hv.writePage(v, g, d);
        }
    }
}

/** parallelKsmCfg() with an explicit kernel window size. */
KsmConfig
batchedKsmCfg(unsigned threads, std::uint32_t batch)
{
    KsmConfig c = parallelKsmCfg(threads);
    c.batchPages = batch;
    return c;
}

class BatchScanEquivalenceFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(BatchScanEquivalenceFuzz, BatchedMatchesUnbatched)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());
    // inc side: software-pipelined 16-page kernel windows; ref side:
    // the same scanner with staging disabled (batchPages == 1). Same
    // thread count both sides, so *only* the batch accounting — the
    // inc side's windows against the ref side's zeros — may differ:
    // every other counter, merge, translation, page content and trace
    // event must be bit-identical.
    TwinStacks t(2 * MiB, batchedKsmCfg(threads, 16),
                 batchedKsmCfg(threads, 1));
    Rng prefill(seed ^ 0xb0075708ull);
    bootStormPrefill(t, prefill);
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(
        t.expectRegistriesEqual(batchShapeCounters, seed));
    // Not vacuous: the batched side really ran kernel windows, and
    // the unbatched side never staged anything.
    EXPECT_GT(t.inc_stats.get("ksm.batch_kernel_pages"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.batch_flushes"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.batch_kernel_pages"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.batch_flushes"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreads, BatchScanEquivalenceFuzz,
    ::testing::Combine(::testing::Values(42, 8128),
                       ::testing::ValuesIn(parallelThreadCounts())));

namespace
{

class BatchWidthInvarianceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(BatchWidthInvarianceFuzz, RaggedWidthsFullyEquivalent)
{
    const std::uint64_t seed = GetParam();
    // Two serial scanners at ragged, co-prime window sizes: window
    // boundaries fall everywhere relative to VM ends and the scan
    // budget, so every tail width of the staging loop is exercised.
    TwinStacks t(2 * MiB, batchedKsmCfg(1, 7), batchedKsmCfg(1, 5));
    Rng prefill(seed ^ 0xb0075708ull);
    bootStormPrefill(t, prefill);
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(
        t.expectRegistriesEqual(batchShapeCounters, seed));
    EXPECT_GT(t.inc_stats.get("ksm.batch_kernel_pages"), 0u);
    EXPECT_GT(t.ref_stats.get("ksm.batch_kernel_pages"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchWidthInvarianceFuzz,
                         ::testing::Values(9, 4242));

namespace
{

/**
 * Build and run a small traced 3-VM scenario. Each guest's balloon is
 * inflated after boot until only @p leave_free_pages guest frames stay
 * free, so the guests' epochs run into guest-internal reclaim and
 * guest swap.
 */
std::unique_ptr<core::Scenario>
runGuestScenario(std::uint64_t seed, Bytes host_ram,
                 std::uint64_t leave_free_pages)
{
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.warmupMs = 4'000;
    cfg.steadyMs = 6'000;
    cfg.host.ramBytes = host_ram;
    cfg.seed = seed;
    auto s = std::make_unique<core::Scenario>(
        cfg, std::vector<workload::WorkloadSpec>(
                 3, workload::tuscanyBigbank()));
    s->build();
    s->trace().enable();
    for (std::size_t v = 0; v < s->vmCount(); ++v) {
        auto &os = s->guest(v);
        const std::uint64_t used =
            os.balloonHeldPages() + os.gfnsAllocated();
        const std::uint64_t free =
            os.guestPages() > used ? os.guestPages() - used : 0;
        if (free > leave_free_pages)
            os.balloonTake(free - leave_free_pages);
    }
    s->run();
    s->hv().checkConsistency();
    return s;
}

/**
 * Byte-for-byte equality of two completed runs: the full stat registry,
 * the whole trace stream including timestamps, the EPT translations and
 * page contents, and the per-epoch results.
 */
void
expectRunsEqual(core::Scenario &a, core::Scenario &b)
{
    auto ca = a.stats().counters();
    auto cb = b.stats().counters();
    ASSERT_EQ(ca.size(), cb.size());
    for (const auto &[name, value] : ca) {
        auto it = cb.find(name);
        ASSERT_TRUE(it != cb.end()) << name;
        EXPECT_EQ(value, it->second) << name;
    }

    const auto &ea = a.trace().events();
    const auto &eb = b.trace().events();
    ASSERT_EQ(ea.size(), eb.size()) << "trace length";
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_TRUE(ea[i].tick == eb[i].tick &&
                    ea[i].type == eb[i].type && ea[i].vm == eb[i].vm &&
                    ea[i].arg0 == eb[i].arg0 && ea[i].arg1 == eb[i].arg1)
            << "trace event " << i;
    }

    ASSERT_EQ(a.vmCount(), b.vmCount());
    ASSERT_EQ(a.hv().residentBytes(), b.hv().residentBytes());
    for (std::size_t v = 0; v < a.vmCount(); ++v) {
        const std::uint64_t pages = a.guest(v).guestPages();
        ASSERT_EQ(pages, b.guest(v).guestPages());
        // Stride-sample the guest address spaces (a prime stride so
        // every region alignment gets coverage).
        for (Gfn g = 0; g < pages; g += 7) {
            ASSERT_EQ(a.hv().translate(v, g), b.hv().translate(v, g))
                << "vm=" << v << " gfn=" << g;
            const PageData *pa = a.hv().peek(v, g);
            const PageData *pb = b.hv().peek(v, g);
            ASSERT_EQ(pa == nullptr, pb == nullptr)
                << "vm=" << v << " gfn=" << g;
            if (pa != nullptr) {
                ASSERT_EQ(*pa, *pb) << "vm=" << v << " gfn=" << g;
            }
        }
    }

    // The epoch histories feed these; exact equality because both
    // runs perform the identical arithmetic in the identical order.
    EXPECT_EQ(a.aggregateThroughput(100), b.aggregateThroughput(100));
    EXPECT_EQ(a.perVmThroughput(100), b.perVmThroughput(100));
    EXPECT_EQ(a.perVmResponseMs(100), b.perVmResponseMs(100));
}

} // namespace

TEST(GuestExecSqueezedDeterminism, BalloonedPagedHostRepeatsExactly)
{
    // Host RAM below the guests' combined footprint (evictions and
    // host swap-ins) and balloons inflated until only ~4 MiB of guest
    // memory stays free (guest reclaim and guest swap): the same seed
    // must still reproduce every counter, trace event, page and epoch
    // result.
    auto a = runGuestScenario(5, 640ULL * MiB, 1024);
    auto b = runGuestScenario(5, 640ULL * MiB, 1024);
    ASSERT_NO_FATAL_FAILURE(expectRunsEqual(*a, *b));
    // The squeeze has to have actually engaged host paging.
    EXPECT_GT(a->hv().majorFaults(0) + a->hv().majorFaults(1) +
                  a->hv().majorFaults(2),
              0u);
}

// ---------------------------------------------------------------------
// PML (dirty-log) scan equivalence
// ---------------------------------------------------------------------

namespace
{

/** Log-driven scanner config at @p threads classify workers. */
KsmConfig
pmlKsmCfg(unsigned threads, std::uint32_t pages_to_scan = 500)
{
    KsmConfig c;
    c.pagesToScan = pages_to_scan;
    c.incrementalScan = true;
    c.usePml = true;
    c.scanThreads = threads;
    c.scanShardPages = 16;
    return c;
}

hv::HostConfig
pmlHostCfg(Bytes ram, std::uint32_t slots)
{
    hv::HostConfig h = TwinStacks::hostCfg(ram);
    h.pmlRingSlots = slots;
    return h;
}

/**
 * Counters that legitimately differ between a log-driven and a walking
 * scanner: visit/skip/staleness accounting (the whole point is visiting
 * fewer pages, so every per-visit tally moves differently) plus the PML
 * plumbing itself, which the walker never touches. Merges, promotions,
 * sharing totals, COW breaks and the trace stream must still match.
 */
const std::vector<std::string> pmlModeCounters = {
    "ksm.pages_visited",       "ksm.pages_gen_skipped",
    "ksm.digest_cache_hits",   "ksm.scan_shards",
    "ksm.precheck_candidates", "ksm.commit_replays",
    "ksm.stale_stable_nodes",  "ksm.stale_unstable_nodes",
    "ksm.skipped_huge",        "ksm.pages_pml_skipped",
    "hv.pml_appends",          "hv.pml_overflows",
    // Batch windows follow the pass shape too (and the log-driven
    // serial pass runs unbatched): see batchShapeCounters.
    "ksm.batch_kernel_pages",  "ksm.batch_flushes",
};

/** One random guest-side mutation applied identically to both stacks. */
void
applyTwinMutation(TwinStacks &t, Rng &rng)
{
    const VmId vm = rng.nextBelow(TwinStacks::numVms);
    const Gfn gfn = rng.nextBelow(TwinStacks::pagesPerVm);
    const int op = rng.nextBelow(100);
    if (op < 45) {
        PageData d = PageData::filled(rng.nextBelow(6), 0);
        t.inc_hv.writePage(vm, gfn, d);
        t.ref_hv.writePage(vm, gfn, d);
    } else if (op < 62) {
        const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
        const std::uint64_t value = rng.nextBelow(4);
        t.inc_hv.writeWord(vm, gfn, sector, value);
        t.ref_hv.writeWord(vm, gfn, sector, value);
    } else if (op < 76) {
        t.inc_hv.discardPage(vm, gfn);
        t.ref_hv.discardPage(vm, gfn);
    } else if (op < 90) {
        t.inc_hv.touchPage(vm, gfn);
        t.ref_hv.touchPage(vm, gfn);
    } else {
        const bool huge = rng.bernoulli(0.5);
        t.inc_hv.setHugePage(vm, gfn, huge);
        t.ref_hv.setHugePage(vm, gfn, huge);
    }
}

/**
 * Everything a log-driven pass must reproduce of the walk: merge and
 * calm-protocol counters, sharing totals, pass count, every
 * translation and page content, and the trace streams event for event.
 * (Visit accounting is excluded by design — see pmlModeCounters.)
 */
void
expectPmlEqual(TwinStacks &t, std::uint64_t seed, int round)
{
    static const char *counters[] = {
        "ksm.stable_merges",
        "ksm.unstable_promotions",
        "ksm.not_calm",
        "hv.cow_breaks",
    };
    for (const char *c : counters)
        ASSERT_EQ(t.inc_stats.get(c), t.ref_stats.get(c))
            << c << " seed=" << seed << " round=" << round;
    ASSERT_EQ(t.inc_scanner.fullScans(), t.ref_scanner.fullScans())
        << "seed=" << seed << " round=" << round;
    ASSERT_EQ(t.inc_scanner.pagesShared(), t.ref_scanner.pagesShared())
        << "seed=" << seed << " round=" << round;
    ASSERT_EQ(t.inc_scanner.pagesSharing(), t.ref_scanner.pagesSharing())
        << "seed=" << seed << " round=" << round;
    for (int v = 0; v < TwinStacks::numVms; ++v) {
        for (Gfn g = 0; g < TwinStacks::pagesPerVm; ++g) {
            ASSERT_EQ(t.inc_hv.translate(v, g), t.ref_hv.translate(v, g))
                << "seed=" << seed << " round=" << round << " vm=" << v
                << " gfn=" << g;
            const PageData *pi = t.inc_hv.peek(v, g);
            const PageData *pr = t.ref_hv.peek(v, g);
            ASSERT_EQ(pi == nullptr, pr == nullptr)
                << "seed=" << seed << " round=" << round << " vm=" << v
                << " gfn=" << g;
            if (pi != nullptr) {
                ASSERT_EQ(*pi, *pr) << "seed=" << seed
                                    << " round=" << round << " vm=" << v
                                    << " gfn=" << g;
            }
        }
    }
    t.inc_hv.checkConsistency();
    t.ref_hv.checkConsistency();

    const auto &ei = t.inc_trace.events();
    const auto &er = t.ref_trace.events();
    ASSERT_EQ(ei.size(), er.size())
        << "trace length, seed=" << seed << " round=" << round;
    for (std::size_t i = 0; i < ei.size(); ++i) {
        ASSERT_TRUE(ei[i].type == er[i].type && ei[i].vm == er[i].vm &&
                    ei[i].arg0 == er[i].arg0 && ei[i].arg1 == er[i].arg1)
            << "trace event " << i << " differs, seed=" << seed
            << " round=" << round;
    }
}

/**
 * Drive the twins pass-at-a-time: a burst of mutations, then exactly
 * one full scan pass on each side. Batch boundaries fall differently
 * in the two modes (the log-driven side has far less to look at), so
 * mutating mid-pass would interleave guest trace events differently —
 * pass granularity is the finest at which the streams stay comparable.
 * This is also the discrete-event shape the drain logic assumes: rings
 * are drained at every batch, so entries never survive a cursor move.
 */
void
driveTwinsByPass(TwinStacks &t, std::uint64_t seed, int rounds)
{
    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        const int burst = 1 + rng.nextBelow(24);
        for (int i = 0; i < burst; ++i)
            applyTwinMutation(t, rng);
        const std::uint64_t inc_to = t.inc_scanner.fullScans() + 1;
        while (t.inc_scanner.fullScans() < inc_to)
            t.inc_scanner.scanBatch();
        const std::uint64_t ref_to = t.ref_scanner.fullScans() + 1;
        while (t.ref_scanner.fullScans() < ref_to)
            t.ref_scanner.scanBatch();
        if (round % 10 == 9) {
            ASSERT_NO_FATAL_FAILURE(expectPmlEqual(t, seed, round));
        }
    }
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(expectPmlEqual(t, seed, -1));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(pmlModeCounters, seed));
}

class PmlScanEquivalenceFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(PmlScanEquivalenceFuzz, MatchesWalkingScanner)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());
    // inc side: log-driven passes from 4096-slot rings (never
    // overflows at this scale); ref side: the serial incremental walk.
    TwinStacks t(pmlHostCfg(2 * MiB, 4096), pmlHostCfg(2 * MiB, 0),
                 pmlKsmCfg(threads), TwinStacks::ksmCfg(true));
    ASSERT_NO_FATAL_FAILURE(driveTwinsByPass(t, seed, 120));
    // Not vacuous: the log really fed the passes, whole clean VMs were
    // skipped outright, and nothing ever fell back to a walk.
    EXPECT_GT(t.inc_stats.get("hv.pml_appends"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.pages_pml_skipped"), 0u);
    EXPECT_EQ(t.inc_stats.get("hv.pml_overflows"), 0u);
    EXPECT_LT(t.inc_stats.get("ksm.pages_visited"),
              t.ref_stats.get("ksm.pages_visited"));
    EXPECT_EQ(t.ref_stats.get("hv.pml_appends"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.pages_pml_skipped"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreads, PmlScanEquivalenceFuzz,
    ::testing::Combine(::testing::Values(6, 256, 8128),
                       ::testing::ValuesIn(parallelThreadCounts())));

namespace
{

class PmlOverflowFallbackFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(PmlOverflowFallbackFuzz, TinyRingsForceWalksAndStillMatch)
{
    const std::uint64_t seed = GetParam();
    // 4-slot rings overflow on nearly every mutation burst, so most
    // passes run as per-VM walk fallbacks — the equivalence must
    // survive constant switching between the two pass shapes.
    TwinStacks t(pmlHostCfg(2 * MiB, 4), pmlHostCfg(2 * MiB, 0),
                 pmlKsmCfg(1), TwinStacks::ksmCfg(true));
    ASSERT_NO_FATAL_FAILURE(driveTwinsByPass(t, seed, 120));
    EXPECT_GT(t.inc_stats.get("hv.pml_overflows"), 0u);
    EXPECT_GT(t.inc_stats.get("hv.pml_appends"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmlOverflowFallbackFuzz,
                         ::testing::Values(6, 64, 256, 496, 8128));

namespace
{

class PmlThreadInvarianceFuzz : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(PmlThreadInvarianceFuzz, WidthsFullyIdentical)
{
    const unsigned threads = GetParam();
    // Two log-driven scanners at different widths share the pass
    // schedule batch for batch, so the full driveTwins stream —
    // mutations interleaved mid-pass and all — must leave them
    // indistinguishable. Against the serial log-driven scanner only
    // the parallel-plumbing tallies may move.
    TwinStacks t(pmlHostCfg(2 * MiB, 4096), pmlHostCfg(2 * MiB, 4096),
                 pmlKsmCfg(threads), pmlKsmCfg(1));
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, 8128, 2500));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(
        plusBatchShape(parallelOnlyCounters), 8128));
    if (threads >= 2) {
        EXPECT_GT(t.inc_stats.get("ksm.scan_shards"), 0u);
    }
    EXPECT_GT(t.inc_stats.get("hv.pml_appends"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, PmlThreadInvarianceFuzz,
                         ::testing::Values(2, 4));
