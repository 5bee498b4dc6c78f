/**
 * @file
 * Integration tests: full scenarios through the core API, checking the
 * paper's qualitative results end to end on a scaled-down setup.
 */

#include <gtest/gtest.h>

#include "core/paper_tables.hh"
#include "core/power_scenario.hh"
#include "core/scenario.hh"

using namespace jtps;
using core::PowerScenario;
using core::PowerScenarioConfig;
using core::Scenario;
using core::ScenarioConfig;

namespace
{

/** A scaled-down scenario that still exercises every code path. */
ScenarioConfig
fastConfig(bool class_sharing)
{
    ScenarioConfig cfg;
    cfg.enableClassSharing = class_sharing;
    cfg.warmupMs = 8'000;
    cfg.steadyMs = 12'000;
    cfg.host.ramBytes = 6ULL * GiB;
    return cfg;
}

std::vector<workload::WorkloadSpec>
tuscanyVms(std::size_t n)
{
    return std::vector<workload::WorkloadSpec>(
        n, workload::tuscanyBigbank());
}

} // namespace

TEST(Scenario, BuildsAndRunsTuscany)
{
    setVerbose(false);
    Scenario s(fastConfig(false), tuscanyVms(3));
    s.build();
    s.run();
    s.hv().checkConsistency();

    EXPECT_EQ(s.vmCount(), 3u);
    auto acct = s.account();
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());

    // Each VM runs one Java process whose memory dominates dozens of MiB.
    for (const auto &row : s.javaRows()) {
        const auto &pu = acct.usage(row.vm, row.pid);
        EXPECT_GT(pu.ownedTotal() + pu.sharedTotal(), 50 * MiB);
    }
}

TEST(Scenario, AccountingAfterRetireVmCoversLiveGuests)
{
    setVerbose(false);
    Scenario s(fastConfig(false), tuscanyVms(3));
    s.build();
    s.runFor(4'000);
    s.retireVm(1);
    s.runFor(2'000);
    s.hv().checkConsistency();

    // The retired guest's EPT is gone; the walk covers the other two.
    auto acct = s.account();
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());
    EXPECT_EQ(acct.residentBytes(), s.hv().residentBytes());
}

TEST(Scenario, ClassSharingIncreasesJavaSavings)
{
    setVerbose(false);
    Scenario base(fastConfig(false), tuscanyVms(3));
    base.build();
    base.run();
    Scenario cds(fastConfig(true), tuscanyVms(3));
    cds.build();
    cds.run();

    auto base_acct = base.account();
    auto cds_acct = cds.account();

    // Non-primary Java savings must grow substantially with the copied
    // cache (paper Fig. 2 vs Fig. 4).
    Bytes base_saving = 0, cds_saving = 0;
    for (VmId v = 1; v < 3; ++v) {
        base_saving += base_acct.vmBreakdown(v).savingJava;
        cds_saving += cds_acct.vmBreakdown(v).savingJava;
    }
    EXPECT_GT(cds_saving, base_saving + 10 * MiB);

    // Total host usage must drop.
    Bytes base_total = 0, cds_total = 0;
    for (VmId v = 0; v < 3; ++v) {
        base_total += base_acct.vmBreakdown(v).usageTotal();
        cds_total += cds_acct.vmBreakdown(v).usageTotal();
    }
    EXPECT_LT(cds_total, base_total);
}

TEST(Scenario, ClassMetadataSharingOnlyWithCds)
{
    setVerbose(false);
    Scenario base(fastConfig(false), tuscanyVms(2));
    base.build();
    base.run();
    Scenario cds(fastConfig(true), tuscanyVms(2));
    cds.build();
    cds.run();

    auto shared_fraction = [](Scenario &s, VmId v) {
        auto acct = s.account();
        auto rows = s.javaRows();
        const auto &pu = acct.usage(rows[v].vm, rows[v].pid);
        const auto idx =
            static_cast<std::size_t>(guest::MemCategory::ClassMetadata);
        const Bytes total = pu.owned[idx] + pu.shared[idx];
        return total == 0
                   ? 0.0
                   : static_cast<double>(pu.shared[idx]) / total;
    };

    // Non-primary VM (VM2): class metadata barely shares without the
    // cache, and mostly shares with it (paper: 89.6%).
    EXPECT_LT(shared_fraction(base, 1), 0.10);
    EXPECT_GT(shared_fraction(cds, 1), 0.60);
}

TEST(Scenario, RepopulatedCachesDoNotShareAcrossVms)
{
    setVerbose(false);
    // Ablation: same classes, but each VM populates its own cache.
    ScenarioConfig cfg = fastConfig(true);
    cfg.copyCacheToAllVms = false;
    Scenario local(cfg, tuscanyVms(2));
    local.build();
    local.run();

    ScenarioConfig copy_cfg = fastConfig(true);
    Scenario copied(copy_cfg, tuscanyVms(2));
    copied.build();
    copied.run();

    auto saving = [](Scenario &s) {
        return s.account().vmBreakdown(1).savingJava;
    };
    EXPECT_GT(saving(copied), saving(local) + 5 * MiB);
}

TEST(Scenario, DeterministicAcrossRuns)
{
    setVerbose(false);
    auto run_once = []() {
        Scenario s(fastConfig(true), tuscanyVms(2));
        s.build();
        s.run();
        auto acct = s.account();
        return std::make_tuple(acct.residentBytes(),
                               acct.vmBreakdown(0).usageTotal(),
                               acct.vmBreakdown(1).savingJava,
                               s.ksm().pagesSharing());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scenario, SeedChangesContentNotShape)
{
    setVerbose(false);
    ScenarioConfig a = fastConfig(false);
    ScenarioConfig b = fastConfig(false);
    b.seed = 4711;
    Scenario sa(a, tuscanyVms(2)), sb(b, tuscanyVms(2));
    sa.build();
    sa.run();
    sb.build();
    sb.run();
    // Identical structure: same resident total within a small margin.
    const double ra = static_cast<double>(sa.account().residentBytes());
    const double rb = static_cast<double>(sb.account().residentBytes());
    EXPECT_NEAR(ra / rb, 1.0, 0.03);
}

TEST(Scenario, MixedMiddlewareUsesSeparateCaches)
{
    setVerbose(false);
    // One WAS app + one Tuscany server: two distinct middleware stacks
    // must get two distinct cache files, and the WAS cache must not
    // share pages with the Tuscany cache.
    std::vector<workload::WorkloadSpec> vms = {
        workload::tuscanyBigbank(), workload::dayTraderIntel(),
        workload::tuscanyBigbank()};
    ScenarioConfig cfg = fastConfig(true);
    Scenario s(cfg, vms);
    s.build();
    s.run();
    s.hv().checkConsistency();

    auto acct = s.account();
    // Tuscany VM3 shares class metadata with Tuscany VM1 (same cache
    // file), despite the DayTrader VM between them.
    const auto rows = s.javaRows();
    const auto idx =
        static_cast<std::size_t>(guest::MemCategory::ClassMetadata);
    const auto &tuscany2 = acct.usage(rows[2].vm, rows[2].pid);
    EXPECT_GT(tuscany2.shared[idx], 5 * MiB);
    // The first Tuscany process owns the shared pages.
    const auto &tuscany1 = acct.usage(rows[0].vm, rows[0].pid);
    EXPECT_LT(tuscany1.shared[idx], tuscany2.shared[idx]);
}

TEST(Scenario, ThpSuppressesAnonSharingButNotTheCache)
{
    setVerbose(false);
    ScenarioConfig cfg = fastConfig(true);
    cfg.guestThp = true;
    Scenario thp(cfg, tuscanyVms(2));
    thp.build();
    thp.run();

    // The cache file still shares (file pages are never THP-backed).
    auto acct = thp.account();
    const auto idx =
        static_cast<std::size_t>(guest::MemCategory::ClassMetadata);
    const auto rows = thp.javaRows();
    EXPECT_GT(acct.usage(rows[1].vm, rows[1].pid).shared[idx],
              2 * MiB);
    EXPECT_GT(thp.stats().get("ksm.skipped_huge"), 0u);
}

TEST(PowerScenario, PreloadingIncreasesSharing)
{
    setVerbose(false);
    PowerScenarioConfig no_preload;
    no_preload.warmEpochs = 4;
    PowerScenario p1(no_preload);
    p1.build();
    auto r1 = p1.measure();

    PowerScenarioConfig preload;
    preload.preloadClasses = true;
    preload.warmEpochs = 4;
    PowerScenario p2(preload);
    p2.build();
    auto r2 = p2.measure();

    EXPECT_GT(r1.saving(), 0u);
    EXPECT_GT(r2.saving(), r1.saving() + 20 * MiB);
    EXPECT_LT(r2.usageAfterSharing, r2.usageBeforeSharing);
    p2.hv().checkConsistency();
}

TEST(PaperTables, RenderAllThree)
{
    EXPECT_NE(core::renderTable1().find("KVM"), std::string::npos);
    EXPECT_NE(core::renderTable2().find("KSM"), std::string::npos);
    EXPECT_NE(core::renderTable3().find("DayTrader"), std::string::npos);
}
