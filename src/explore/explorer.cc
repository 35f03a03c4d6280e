#include "explore/explorer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "support/hash.h"
#include "support/observe.h"
#include "support/trace.h"

namespace portend::explore {

namespace {

using Access = rt::ScheduleObservation::Access;

/**
 * Replace each value by its rank among the distinct values, so
 * per-value state fits a dense vector however sparse or negative
 * the values are (pseudo-sites, test-built tid -1).
 *
 * @return the number of distinct values
 */
std::size_t
denseRanks(std::vector<int> &vals)
{
    std::vector<int> distinct = vals;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (int &v : vals)
        v = static_cast<int>(
            std::lower_bound(distinct.begin(), distinct.end(), v) -
            distinct.begin());
    return distinct.size();
}

/** One event of the Foata normal form, reduced to what it prints. */
struct FoataEvent
{
    int level;
    rt::ThreadId tid;
    int site;
    bool write;

    bool
    operator<(const FoataEvent &o) const
    {
        if (level != o.level)
            return level < o.level;
        if (tid != o.tid)
            return tid < o.tid;
        if (site != o.site)
            return site < o.site;
        return write < o.write;
    }
};

/**
 * Foata layering in one pass: an event's level is one past the
 * deepest event it depends on. Levels rise along a thread, so the
 * deepest same-thread predecessor is the thread's previous event;
 * at the event's site it is the deepest earlier access (for a
 * write) or earlier write (for a read). Events sharing a level are
 * pairwise independent by construction, so the sort within a level
 * is pure canonicalization.
 */
std::vector<FoataEvent>
foataLayers(const rt::ScheduleObservation &obs)
{
    const std::vector<Access> &ev = obs.accesses;
    std::vector<int> thread(ev.size());
    std::vector<int> site(ev.size());
    for (std::size_t i = 0; i < ev.size(); ++i) {
        thread[i] = ev[i].tid;
        site[i] = ev[i].site;
    }
    std::vector<int> thread_top(denseRanks(thread), -1);
    const std::size_t sites = denseRanks(site);
    std::vector<int> site_access(sites, -1);
    std::vector<int> site_write(sites, -1);

    std::vector<FoataEvent> out;
    out.reserve(ev.size());
    for (std::size_t i = 0; i < ev.size(); ++i) {
        const Access &a = ev[i];
        int &top = thread_top[static_cast<std::size_t>(thread[i])];
        int &any = site_access[static_cast<std::size_t>(site[i])];
        int &wr = site_write[static_cast<std::size_t>(site[i])];
        const int level = std::max(top, a.write ? any : wr) + 1;
        top = level;
        any = std::max(any, level);
        if (a.write)
            wr = level;
        out.push_back({level, a.tid, a.site, a.write});
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * The canonical signature text, handed to @p sink one event at a
 * time (a string_view into a stack buffer): levels are separated by
 * '|', events within a level by ',', each printed as t<tid><w|r><site>.
 */
template <class Sink>
void
emitSignature(const rt::ScheduleObservation &obs, Sink &&sink)
{
    int cur = -1;
    for (const FoataEvent &e : foataLayers(obs)) {
        // Separator, 't', two ints of at most 11 chars, 'w'/'r'.
        char buf[32];
        char *p = buf;
        char *const end = buf + sizeof buf;
        if (e.level != cur) {
            if (cur >= 0)
                *p++ = '|';
            cur = e.level;
        } else {
            *p++ = ',';
        }
        *p++ = 't';
        p = std::to_chars(p, end, e.tid).ptr;
        *p++ = e.write ? 'w' : 'r';
        p = std::to_chars(p, end, e.site).ptr;
        sink(std::string_view(buf, static_cast<std::size_t>(p - buf)));
    }
}

/** Keep only what expand() reads of @p obs: the first kExpandWindow
 *  accesses, and the decisions up to the last one they reference. */
void
keepExpandWindow(rt::ScheduleObservation &obs)
{
    constexpr std::size_t window = ScheduleExplorer::kExpandWindow;
    if (obs.accesses.size() > window) {
        obs.accesses.resize(window);
        obs.accesses.shrink_to_fit();
    }
    int last = -1;
    for (const Access &a : obs.accesses)
        last = std::max(last, a.pick);
    const auto keep = static_cast<std::size_t>(last + 1);
    if (obs.picks.size() > keep) {
        obs.picks.resize(keep);
        obs.picks.shrink_to_fit();
    }
    if (obs.enabledCount() > keep) {
        obs.keepEnabled(keep);
        obs.enabled_ids.shrink_to_fit();
        obs.enabled_end.shrink_to_fit();
    }
}

} // namespace

std::string
canonicalSignature(const rt::ScheduleObservation &obs)
{
    std::string out;
    out.reserve(obs.accesses.size() * 10);
    emitSignature(obs, [&](std::string_view piece) { out += piece; });
    return out;
}

std::string
signatureHash(const rt::ScheduleObservation &obs)
{
    std::uint64_t h = kFnvOffset;
    emitSignature(obs, [&](std::string_view piece) {
        for (char ch : piece)
            h = fnv1aByte(h, static_cast<std::uint8_t>(ch));
    });
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

ScheduleExplorer::ScheduleExplorer(ExplorerOptions o) : opts(o)
{
    if (opts.max_runs <= 0)
        opts.max_runs = opts.budget * 4 + 4;
    // Pre-seed classes witnessed by earlier explorers so distinct_
    // only counts globally-new ones (per-path budget sharing).
    seen_ = opts.known;
    // The systematic baseline: no injected preemptions, pure
    // deterministic fallback. Runs after the seeded phase.
    push({}, 0);
}

std::optional<PostSpec>
ScheduleExplorer::next()
{
    // The seeded phase always runs whole; only then do budget and
    // cap apply.
    if (opts.random_first && random_issued_ < opts.budget) {
        runs_ += 1;
        random_issued_ += 1;
        last_preemptions_ = 0;
        return PostSpec::random(opts.seed_base + random_issued_);
    }
    if (distinct_ >= opts.budget || runs_ >= opts.max_runs)
        return std::nullopt;
    expandPending();
    if (frontier.empty()) {
        exhausted_ = true;
        return std::nullopt;
    }
    Candidate c = std::move(frontier.front());
    frontier.pop_front();
    runs_ += 1;
    last_preemptions_ = c.preemptions;
    return PostSpec::guided(std::move(c.prefix));
}

bool
ScheduleExplorer::record(rt::ScheduleObservation obs)
{
    // (Fully qualified: the observation parameter shadows the obs
    // namespace here.)
    ::portend::obs::Span span("explore", "record");
    last_sig_ = signatureHash(obs);
    const bool fresh = seen_.insert(last_sig_).second;
    if (fresh)
        distinct_ += 1;
    if (last_preemptions_ < opts.preemption_bound) {
        keepExpandWindow(obs);
        pending_.push_back({std::move(obs), last_preemptions_});
    }
    span.arg("fresh", fresh ? 1 : 0);
    if (auto *c = ::portend::obs::collector()) {
        using ::portend::obs::Counter;
        c->add(Counter::ExploreRecorded, 1);
        c->add(Counter::ExploreDistinct, fresh ? 1 : 0);
    }
    return fresh;
}

void
ScheduleExplorer::expandPending()
{
    if (!frontier.empty() || pending_.empty())
        return;
    // The span covers expand(): DPOR backtrack-candidate generation
    // is the quadratic part worth seeing in a trace.
    obs::Span span("explore", "expand");
    while (frontier.empty() && !pending_.empty()) {
        const Pending p = std::move(pending_.front());
        pending_.pop_front();
        expand(p.obs, p.preemptions);
    }
    span.arg("candidates", static_cast<std::int64_t>(frontier.size()));
    if (auto *c = obs::collector())
        c->add(obs::Counter::ExploreCandidates, frontier.size());
}

void
ScheduleExplorer::push(std::vector<rt::ThreadId> prefix, int preemptions)
{
    if (!issued_.insert(prefix).second)
        return; // sleep-set pruning: one execution per prefix, ever
    frontier.push_back({std::move(prefix), preemptions});
}

void
ScheduleExplorer::expand(const rt::ScheduleObservation &obs,
                         int base_preempt)
{
    const std::vector<Access> &ev = obs.accesses;
    const std::size_t window = std::min(ev.size(), kExpandWindow);

    for (std::size_t j = 1; j < window; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            const Access &a = ev[i];
            const Access &b = ev[j];
            if (a.tid == b.tid || a.pick < 0)
                continue;
            if (a.site != b.site || !(a.write || b.write))
                continue;

            // Backtrack: at the decision that ran `a`, run `b`'s
            // thread instead — repeatedly, until it has executed
            // its conflicting access — flipping the pair in one
            // injected preemption (a chunk; a single rescheduled
            // step followed by the fair fallback almost never
            // realizes a distant flip). When b's thread was not
            // enabled there (blocked on a lock, not yet created),
            // fall back to every other enabled choice — the classic
            // persistent-set widening.
            const std::size_t p = static_cast<std::size_t>(a.pick);
            if (p >= obs.picks.size() || p >= obs.enabledCount())
                continue;
            std::vector<rt::ThreadId> base(obs.picks.begin(),
                                           obs.picks.begin() +
                                               static_cast<long>(p));
            const std::span<const rt::ThreadId> en = obs.enabled(p);
            const bool b_enabled =
                std::find(en.begin(), en.end(), b.tid) != en.end();
            if (b_enabled) {
                // One pick per pending b-segment up to (and
                // including) the conflicting access itself.
                int chunk = 1;
                for (std::size_t k = 0; k < j; ++k) {
                    if (ev[k].tid == b.tid && ev[k].pick >= a.pick)
                        chunk += 1;
                }
                std::vector<rt::ThreadId> child = base;
                child.insert(child.end(),
                             static_cast<std::size_t>(chunk), b.tid);
                push(std::move(child), base_preempt + 1);
            } else {
                for (rt::ThreadId t : en) {
                    if (t == obs.picks[p])
                        continue;
                    std::vector<rt::ThreadId> child = base;
                    child.push_back(t);
                    push(std::move(child), base_preempt + 1);
                }
            }
        }
    }
}

} // namespace portend::explore
