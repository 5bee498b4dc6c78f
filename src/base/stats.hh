/**
 * @file
 * Minimal named-statistics registry.
 *
 * Components register counters ("ksm.pages_shared", "hv.cow_breaks") into
 * a StatSet owned by the scenario. Benches and tests read them by name;
 * the registry can dump itself as an aligned table.
 */

#ifndef JTPS_BASE_STATS_HH
#define JTPS_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace jtps
{

/**
 * A set of named 64-bit counters and floating-point scalars.
 *
 * The container is a std::map so that dump order is deterministic —
 * stat output is diffed by the determinism tests.
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(const std::string &name, std::uint64_t delta = 1);

    /**
     * Stable reference to counter @p name (creating it at zero).
     *
     * Hot paths (the KSM scanner visits every guest page on every
     * pass) resolve their counters once and bump the reference, so the
     * per-event cost is one add instead of a string-keyed map lookup.
     * The map is node-based, so the reference stays valid across later
     * insertions; only clear() invalidates handles.
     */
    std::uint64_t &counter(const std::string &name);

    /** Subtract @p delta from counter @p name (must not underflow). */
    void dec(const std::string &name, std::uint64_t delta = 1);

    /** Set counter @p name to an absolute value. */
    void set(const std::string &name, std::uint64_t value);

    /** Set scalar @p name. */
    void setScalar(const std::string &name, double value);

    /** Read a counter; returns 0 if it was never touched. */
    std::uint64_t get(const std::string &name) const;

    /** Read a scalar; returns 0.0 if it was never touched. */
    double getScalar(const std::string &name) const;

    /** True if the counter exists. */
    bool has(const std::string &name) const;

    /**
     * Owner label for multi-host runs. When set, render() prefixes
     * every name with "<scope>." and the JSON exporter stamps a
     * "scope" field into the registry document, so registries from
     * different hosts stay distinguishable after merging. Names used
     * with inc()/get()/counters() are NOT prefixed — the scope is a
     * presentation property, which keeps single-host documents (empty
     * scope) byte-identical to the pre-scope format.
     */
    void setScope(std::string scope) { scope_ = std::move(scope); }

    /** The owner label ("" for single-host registries). */
    const std::string &scope() const { return scope_; }

    /** Render all stats as an aligned two-column table. */
    std::string render() const;

    /** Drop all stats. */
    void clear();

    /** All counters, for iteration in tests. */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    /** All scalars, for iteration (JSON export, tests). */
    const std::map<std::string, double> &scalars() const
    {
        return scalars_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::string scope_;
};

/**
 * A counter handle resolved on first use, for per-page paths that
 * cannot afford a string-keyed lookup per event but must not register
 * their counter before it fires: the first inc()/set() creates the
 * counter (exactly as StatSet::inc()/set() would) and caches its
 * address; every later call is one add or store. A null sink makes
 * every call a no-op. Like StatSet::counter(), the handle is
 * invalidated by StatSet::clear().
 */
class LazyCounter
{
  public:
    LazyCounter(StatSet *stats, const char *name)
        : stats_(stats), name_(name)
    {
    }

    /** Add @p delta, registering the counter on first use. */
    void
    inc(std::uint64_t delta = 1)
    {
        if (std::uint64_t *c = slot())
            *c += delta;
    }

    /** Store @p value, registering the counter on first use. */
    void
    set(std::uint64_t value)
    {
        if (std::uint64_t *c = slot())
            *c = value;
    }

  private:
    std::uint64_t *
    slot()
    {
        if (!slot_ && stats_)
            slot_ = &stats_->counter(name_);
        return slot_;
    }

    StatSet *stats_;
    const char *name_;
    std::uint64_t *slot_ = nullptr;
};

} // namespace jtps

#endif // JTPS_BASE_STATS_HH
