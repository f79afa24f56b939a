/**
 * @file
 * Property test for batched fault resolution: touchRange() over any
 * extent must be observationally identical to the per-page touch()
 * loop it replaced — same virtual clock, same counters, same observer
 * event sequence, same RNG evolution, same memory accounting.
 *
 * Two twin worlds (own SimContext with the same seed, own FrameStore,
 * mirrored layouts) are driven through the same access script; world A
 * touches page by page, world B uses touchRange. Every observable must
 * match bit-for-bit.
 *
 * A second property pins PageTable::lookup against a per-page model
 * while ascending strided probe streams (the cursor's fast path) run
 * interleaved with every kind of table mutation and table copies.
 *
 * A third holds touchStrided() to the per-page loop of the handler's
 * working-set touch over fragmented, Base-EPT, cold, COW-shared and
 * sole-owner spaces, strides 1-64, none/some/all writes, with and
 * without an observer: same FaultResult tallies, counters, clock, RNG,
 * frame ids, refcounts, run layout and observer order.
 */

#include <cstdint>
#include <map>
#include <string>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mem/address_space.h"
#include "mem/backing_file.h"
#include "mem/base_mapping.h"
#include "mem/frame_store.h"
#include "mem/page_table.h"
#include "sim/context.h"

namespace catalyzer::mem {
namespace {

using sim::SimContext;

/**
 * Records every fault extent re-expanded page by page, as a flat,
 * comparable sequence: a batched notification must carry exactly the
 * pages, in order, that the per-page loop reports one at a time.
 */
class RecordingObserver : public FaultObserver
{
  public:
    using Event = std::tuple<PageIndex, bool, FaultResult>;

    void
    onFaultRange(PageIndex start, std::size_t npages, bool write,
                 FaultResult result) override
    {
        for (std::size_t k = 0; k < npages; ++k)
            events.push_back({start + k, write, result});
    }

    std::vector<Event> events;
};

/** One self-contained simulated world with a mirrored memory layout. */
struct World
{
    SimContext ctx{1234};
    FrameStore store;
    BackingFile file{store, "/img", 256};
    BackingFile image{store, "/func.img", 64};
    std::shared_ptr<BaseMapping> base =
        std::make_shared<BaseMapping>(store, image, 0, 64, "base");
    AddressSpace space{ctx, store, "w"};
    PageIndex anon_va = 0;
    PageIndex filep_va = 0;
    PageIndex base_va = 0;

    World()
    {
        anon_va = space.mapAnon(128, true, "heap");
        filep_va = space.mapFile(file, 0, 96, MapKind::FilePrivate, true,
                                 "code");
        base_va = space.attachBase(base);
    }
};

/** One scripted range access: offsets are VMA-relative. */
struct Access
{
    enum class Window { Anon, FilePrivate, Base } window;
    PageIndex offset;
    std::size_t npages;
    bool write;
    bool cold;
};

PageIndex
windowStart(const World &w, Access::Window window)
{
    switch (window) {
      case Access::Window::Anon: return w.anon_va;
      case Access::Window::FilePrivate: return w.filep_va;
      case Access::Window::Base: return w.base_va;
    }
    return 0;
}

/** Deterministic script mixing fills, re-reads, COW, cold and base. */
std::vector<Access>
script()
{
    using W = Access::Window;
    std::vector<Access> s = {
        {W::Anon, 0, 32, false, false},        // demand-zero fill
        {W::Anon, 16, 32, true, false},        // half present, half fill
        {W::Anon, 0, 48, false, false},        // all present: no faults
        {W::FilePrivate, 0, 24, false, true},  // cold file fill (RNG)
        {W::FilePrivate, 8, 24, true, false},  // COW over private file
        {W::Base, 0, 32, false, false},        // base fill + hits
        {W::Base, 8, 12, true, false},         // base COW into private
        {W::Base, 0, 32, false, false},        // base hits + private hits
        {W::Anon, 100, 1, true, false},        // single-page extents
        {W::Anon, 101, 1, true, false},
        {W::FilePrivate, 90, 6, false, true},  // tail of the VMA, cold
    };
    // Striding writes: the invoke()-style scattered single-page COW
    // pattern, then one large range crossing all the holes.
    for (PageIndex p = 48; p < 96; p += 5)
        s.push_back({W::Anon, p, 1, true, false});
    s.push_back({W::Anon, 40, 80, true, false});
    return s;
}

/** Assert every observable of the two worlds matches. */
void
expectWorldsEqual(World &a, World &b, const char *at)
{
    EXPECT_EQ(a.ctx.now().toNs(), b.ctx.now().toNs()) << at;
    EXPECT_EQ(a.ctx.stats().all(), b.ctx.stats().all()) << at;
    EXPECT_EQ(a.space.privatePages(), b.space.privatePages()) << at;
    EXPECT_EQ(a.space.rssPages(), b.space.rssPages()) << at;
    EXPECT_DOUBLE_EQ(a.space.pssBytes(), b.space.pssBytes()) << at;
    EXPECT_EQ(a.store.liveFrames(), b.store.liveFrames()) << at;
    EXPECT_EQ(a.base->residentPages(), b.base->residentPages()) << at;
    // Same RNG evolution: the next draw must match in both worlds.
    EXPECT_EQ(a.ctx.rng().next64(), b.ctx.rng().next64()) << at;
}

TEST(MemBatchProperty, TouchRangeMatchesPerPageLoop)
{
    World a; // per-page loop
    World b; // batched touchRange
    RecordingObserver obs_a;
    RecordingObserver obs_b;
    a.space.setFaultObserver(&obs_a);
    b.space.setFaultObserver(&obs_b);

    for (const Access &acc : script()) {
        const PageIndex start_a = windowStart(a, acc.window) + acc.offset;
        const PageIndex start_b = windowStart(b, acc.window) + acc.offset;
        std::size_t faults_a = 0;
        for (std::size_t k = 0; k < acc.npages; ++k) {
            if (a.space.touch(start_a + k, acc.write, acc.cold) !=
                FaultResult::None)
                ++faults_a;
        }
        const std::size_t faults_b =
            b.space.touchRange(start_b, acc.npages, acc.write, acc.cold);
        EXPECT_EQ(faults_a, faults_b);
        expectWorldsEqual(a, b, "mid-script");
    }

    // The observer saw the same page/write/result sequence (pages are
    // compared VMA-relative since the two worlds share a layout).
    ASSERT_EQ(obs_a.events.size(), obs_b.events.size());
    for (std::size_t i = 0; i < obs_a.events.size(); ++i)
        EXPECT_EQ(obs_a.events[i], obs_b.events[i]) << "event " << i;
    a.space.setFaultObserver(nullptr);
    b.space.setFaultObserver(nullptr);
}

TEST(MemBatchProperty, RangeObserverSeesSameExpansion)
{
    // touch() reports every fault as a one-page extent; touchRange
    // reports identically resolved runs as longer extents, which
    // re-expand to exactly the per-page sequence.
    struct Extent
    {
        PageIndex start;
        std::size_t npages;
        bool write;
        FaultResult result;
    };
    struct ExtentObserver : FaultObserver
    {
        void
        onFaultRange(PageIndex start, std::size_t npages, bool write,
                     FaultResult result) override
        {
            extents.push_back({start, npages, write, result});
        }

        std::vector<RecordingObserver::Event>
        expanded() const
        {
            std::vector<RecordingObserver::Event> pages;
            for (const Extent &e : extents)
                for (std::size_t k = 0; k < e.npages; ++k)
                    pages.push_back({e.start + k, e.write, e.result});
            return pages;
        }

        std::vector<Extent> extents;
    };

    World a;
    World b;
    ExtentObserver obs_a;
    ExtentObserver obs_b;
    a.space.setFaultObserver(&obs_a);
    b.space.setFaultObserver(&obs_b);

    for (const Access &acc : script()) {
        for (std::size_t k = 0; k < acc.npages; ++k)
            a.space.touch(windowStart(a, acc.window) + acc.offset + k,
                          acc.write, acc.cold);
        b.space.touchRange(windowStart(b, acc.window) + acc.offset,
                           acc.npages, acc.write, acc.cold);
    }

    for (const Extent &e : obs_a.extents)
        EXPECT_EQ(e.npages, 1u);
    EXPECT_LT(obs_b.extents.size(), obs_a.extents.size());
    EXPECT_EQ(obs_a.expanded(), obs_b.expanded());
    a.space.setFaultObserver(nullptr);
    b.space.setFaultObserver(nullptr);
}

TEST(MemBatchProperty, ForkCowLockstep)
{
    World a;
    World b;

    // Populate, fork, then resolve COW from both sides of each world.
    for (std::size_t k = 0; k < 64; ++k)
        a.space.touch(a.anon_va + k, true);
    b.space.touchRange(b.anon_va, 64, true);
    expectWorldsEqual(a, b, "pre-fork");

    auto child_a = a.space.forkCow("child");
    auto child_b = b.space.forkCow("child");
    expectWorldsEqual(a, b, "post-fork");

    std::size_t faults_a = 0;
    for (std::size_t k = 0; k < 32; ++k) {
        if (child_a->touch(a.anon_va + k, true) != FaultResult::None)
            ++faults_a;
    }
    EXPECT_EQ(faults_a, child_b->touchRange(b.anon_va, 32, true));
    // Parent resolves the other half: sole-owner reuse after child
    // copies, plain COW where the child has not written.
    std::size_t parent_faults_a = 0;
    for (std::size_t k = 0; k < 64; ++k) {
        if (a.space.touch(a.anon_va + k, true) != FaultResult::None)
            ++parent_faults_a;
    }
    EXPECT_EQ(parent_faults_a, b.space.touchRange(b.anon_va, 64, true));
    expectWorldsEqual(a, b, "post-cow");
}

/** Per-page model of a PageTable: what every lookup must return. */
using PageModel = std::map<PageIndex, Pte>;

void
expectLookup(const PageTable &table, const PageModel &model, PageIndex page,
             const char *which)
{
    Pte got;
    const bool present = table.lookup(page, &got);
    const auto it = model.find(page);
    ASSERT_EQ(present, it != model.end()) << which << " page " << page;
    if (present) {
        EXPECT_EQ(got.frame, it->second.frame) << which << " page " << page;
        EXPECT_EQ(got.writable, it->second.writable)
            << which << " page " << page;
        EXPECT_EQ(got.cow, it->second.cow) << which << " page " << page;
    }
}

/** Shape of a fragmented table under test. */
enum class TableShape
{
    /** Private-EPT: scattered frames, mixed writable/COW/read-only. */
    Private,
    /** Base-EPT: read-only, frame = base + page, holes in clusters. */
    Base,
};

constexpr PageIndex kProbeSpan = 2048;
constexpr FrameId kBaseFrame0 = 50000;

Pte
randomPte(TableShape shape, PageIndex page, std::mt19937_64 &rng)
{
    if (shape == TableShape::Base)
        return Pte{kBaseFrame0 + page, false, false};
    // Mostly contiguous frames so neighbours coalesce into runs.
    const FrameId frame = rng() % 4 != 0 ? 1000 + page : 1 + rng() % 100000;
    switch (rng() % 3) {
      case 0: return Pte{frame, true, false};
      case 1: return Pte{frame, false, true};
      default: return Pte{frame, false, false};
    }
}

void
buildFragmented(PageTable &table, PageModel &model, TableShape shape,
                std::mt19937_64 &rng)
{
    PageIndex p = 0;
    while (p < kProbeSpan) {
        const std::size_t run = 1 + rng() % 12;
        const std::size_t gap = rng() % 7;
        for (std::size_t k = 0; k < run && p + k < kProbeSpan; ++k) {
            const Pte pte = randomPte(shape, p + k, rng);
            table.install(p + k, pte);
            model[p + k] = pte;
        }
        p += run + gap;
    }
}

/** Apply one random mutation to @p table and mirror it in @p model. */
void
mutate(PageTable &table, PageModel &model, TableShape shape,
       std::mt19937_64 &rng)
{
    const PageIndex start = rng() % kProbeSpan;
    const std::size_t n = 1 + rng() % 24;
    const PageIndex end = start + n;
    switch (rng() % 4) {
      case 0: {
        const Pte pte = randomPte(shape, start, rng);
        table.install(start, pte);
        model[start] = pte;
        break;
      }
      case 1:
        table.eraseRange(start, n);
        model.erase(model.lower_bound(start), model.lower_bound(end));
        break;
      case 2:
        table.markCowRange(start, n);
        for (auto it = model.lower_bound(start);
             it != model.end() && it->first < end; ++it) {
            if (it->second.writable) {
                it->second.writable = false;
                it->second.cow = true;
            }
        }
        break;
      default: {
        // setFlagsRange needs a fully present range: the present
        // stretch starting at the first page at or after start.
        const auto it = model.lower_bound(start);
        if (it == model.end())
            break;
        const PageIndex s0 = it->first;
        std::size_t len = 0;
        while (len < n && model.contains(s0 + len))
            ++len;
        const bool writable = rng() % 2 == 0;
        const bool cow = !writable && rng() % 2 == 0;
        table.setFlagsRange(s0, len, writable, cow);
        for (std::size_t k = 0; k < len; ++k) {
            model[s0 + k].writable = writable;
            model[s0 + k].cow = cow;
        }
        break;
      }
    }
}

TEST(PageTableCursor, StridedProbesMatchPerPageModel)
{
    for (TableShape shape : {TableShape::Private, TableShape::Base}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            std::mt19937_64 rng(seed * 7919 +
                                (shape == TableShape::Base ? 1 : 0));
            PageTable table;
            PageModel model;
            buildFragmented(table, model, shape, rng);
            for (PageIndex stride = 1; stride <= 7; ++stride) {
                SCOPED_TRACE(testing::Message()
                             << "shape " << static_cast<int>(shape)
                             << " seed " << seed << " stride " << stride);
                for (PageIndex p = rng() % 8; p < kProbeSpan + 16;
                     p += stride) {
                    expectLookup(table, model, p, "table");
                    if (rng() % 24 == 0)
                        mutate(table, model, shape, rng);
                    if (rng() % 32 == 0) // a backward or far probe
                        expectLookup(table, model, rng() % kProbeSpan,
                                     "table");
                }
                ASSERT_EQ(table.presentPages(), model.size());
            }
        }
    }
}

TEST(PageTableCursor, CopiedTableNeverInheritsTheCursor)
{
    for (TableShape shape : {TableShape::Private, TableShape::Base}) {
        for (PageIndex stride = 1; stride <= 7; ++stride) {
            SCOPED_TRACE(testing::Message()
                         << "shape " << static_cast<int>(shape)
                         << " stride " << stride);
            std::mt19937_64 rng(stride * 131 +
                                (shape == TableShape::Base ? 1 : 0));
            PageTable table;
            PageModel model;
            buildFragmented(table, model, shape, rng);
            PageIndex p = 0;
            for (; p < kProbeSpan / 2; p += stride)
                expectLookup(table, model, p, "source");

            // Copy mid-stream, as forkCow assigns the child's table,
            // and copy-construct a twin; then rewrite the source ahead
            // of the stream so any inherited iterator would be stale.
            PageTable child;
            child = table;
            const PageTable twin(table);
            const PageModel snapshot = model;
            table.eraseRange(p, kProbeSpan - p);
            model.erase(model.lower_bound(p), model.end());
            for (PageIndex q = p; q < kProbeSpan; q += 3) {
                const Pte pte = randomPte(shape, q, rng);
                table.install(q, pte);
                model[q] = pte;
            }
            PageModel child_model = snapshot;
            for (; p < kProbeSpan + 16; p += stride) {
                expectLookup(table, model, p, "source");
                expectLookup(child, child_model, p, "child");
                expectLookup(twin, snapshot, p, "twin");
                if (rng() % 16 == 0)
                    mutate(table, model, shape, rng);
                if (rng() % 16 == 0)
                    mutate(child, child_model, shape, rng);
            }
        }
    }
}

TEST(PageTableInstallStrided, LeavesTheLayoutOfAscendingInstalls)
{
    constexpr std::size_t kCount = 5;
    for (const std::size_t stride : {1, 2, 3, 7}) {
        SCOPED_TRACE(testing::Message() << "stride " << stride);
        const PageIndex last = 100 + (kCount - 1) * stride;
        PageTable a; // ascending install() calls
        PageTable b; // installStrided
        for (PageTable *t : {&a, &b}) {
            // Neighbours whose frames extend the batch's first and last
            // page, so both ends must coalesce, and one that must not.
            t->install(99, Pte{499, true, false});
            t->install(last + 1, Pte{500 + kCount, true, false});
            t->install(40, Pte{7, false, true});
        }
        for (std::size_t k = 0; k < kCount; ++k)
            a.install(100 + k * stride, Pte{500 + k, true, false});
        b.installStrided(100, kCount, stride, 500, true, false);
        std::vector<std::tuple<PageIndex, std::size_t, FrameId>> runs_a;
        std::vector<std::tuple<PageIndex, std::size_t, FrameId>> runs_b;
        a.forEachRun([&](PageIndex p, const PageTable::Run &r) {
            runs_a.emplace_back(p, r.npages, r.frame0);
        });
        b.forEachRun([&](PageIndex p, const PageTable::Run &r) {
            runs_b.emplace_back(p, r.npages, r.frame0);
        });
        EXPECT_EQ(runs_a, runs_b);
        EXPECT_EQ(a.presentPages(), b.presentPages());
        EXPECT_DEATH(b.installStrided(100, 1, 2, 900, true, false),
                     "PageTable::install");
    }
}

/** The space under test, how it was built, and the window it touches. */
enum class StridedShape
{
    Fragmented, ///< scattered writable, pending-COW and absent pages
    Base,       ///< partly resident Base-EPT, a few private copies
    Cold,       ///< nothing present, nothing resident
    CowShared,  ///< a forkCow child whose parent still shares its frames
    SoleOwner,  ///< a forkCow child whose parent is gone
};

enum class StridedWindow { Anon, Base };

/** A twin world for touchStrided: heap and base window of 512 pages. */
struct StridedWorld
{
    static constexpr std::size_t kPages = 512;

    SimContext ctx{4242};
    FrameStore store;
    BackingFile image{store, "/func.img", kPages};
    std::shared_ptr<BaseMapping> base =
        std::make_shared<BaseMapping>(store, image, 0, kPages, "base");
    std::unique_ptr<AddressSpace> parent =
        std::make_unique<AddressSpace>(ctx, store, "parent");
    /** A second space on the same base: fills it without private pages. */
    std::unique_ptr<AddressSpace> peer =
        std::make_unique<AddressSpace>(ctx, store, "peer");
    std::unique_ptr<AddressSpace> child;
    AddressSpace *space = nullptr;
    PageIndex anon_va = 0;
    PageIndex base_va = 0;

    explicit StridedWorld(StridedShape shape)
    {
        anon_va = parent->mapAnon(kPages, true, "heap");
        base_va = parent->attachBase(base);
        const PageIndex peer_base = peer->attachBase(base);
        std::mt19937_64 rng(99);
        space = parent.get();
        if (shape == StridedShape::Cold)
            return;
        // Base residency in scattered clusters, through the peer.
        for (PageIndex p = 0; p < kPages; p += 1 + rng() % 9) {
            const std::size_t n = 1 + rng() % 6;
            peer->touchRange(peer_base + p,
                             std::min<std::size_t>(n, kPages - p), false);
        }
        // Scattered private pages in both windows, read and written.
        for (int i = 0; i < 90; ++i) {
            parent->touch(anon_va + rng() % kPages, rng() % 2 == 0);
            const PageIndex b = base_va + rng() % kPages;
            if (base->lookup(b - base_va))
                parent->touch(b, true);
        }
        if (shape == StridedShape::Base)
            return;
        // Share every present page COW with a child ...
        child = parent->forkCow("child");
        if (shape == StridedShape::Fragmented) {
            // ... then break sharing again on a scattered subset, so
            // the parent mixes writable, COW and absent pages.
            child.reset();
            for (int i = 0; i < 60; ++i)
                parent->touch(anon_va + rng() % kPages, true);
            return;
        }
        space = child.get();
        if (shape == StridedShape::SoleOwner)
            parent.reset();
    }

    PageIndex
    windowStart(StridedWindow window) const
    {
        return window == StridedWindow::Anon ? anon_va : base_va;
    }
};

/** One comparable record of a run and the frames behind it. */
using RunRecord =
    std::tuple<PageIndex, std::size_t, FrameId, bool, bool, std::string>;

std::vector<RunRecord>
runLayout(const PageTable &table, const FrameStore &store)
{
    std::vector<RunRecord> out;
    table.forEachRun([&](PageIndex start, const PageTable::Run &run) {
        std::string refs;
        store.forEachSegment(
            run.frame0, run.npages,
            [&refs](std::size_t m, std::size_t r, FrameSource src) {
                refs += std::to_string(m);
                refs += 'x';
                refs += std::to_string(r);
                refs += src == FrameSource::PageCache ? "c " : "a ";
            });
        out.emplace_back(start, run.npages, run.frame0, run.writable,
                         run.cow, refs);
    });
    return out;
}

void
expectStridedWorldsEqual(StridedWorld &a, StridedWorld &b)
{
    EXPECT_EQ(a.ctx.now().toNs(), b.ctx.now().toNs());
    EXPECT_EQ(a.ctx.stats().all(), b.ctx.stats().all());
    EXPECT_EQ(a.store.liveFrames(), b.store.liveFrames());
    EXPECT_EQ(a.store.totalAllocated(), b.store.totalAllocated());
    EXPECT_EQ(runLayout(a.space->privateTable(), a.store),
              runLayout(b.space->privateTable(), b.store));
    EXPECT_EQ(runLayout(a.base->table(), a.store),
              runLayout(b.base->table(), b.store));
    EXPECT_EQ(a.ctx.rng().next64(), b.ctx.rng().next64());
}

class TouchStridedProperty
    : public ::testing::TestWithParam<std::tuple<StridedShape, StridedWindow>>
{};

TEST_P(TouchStridedProperty, MatchesPerPageLoop)
{
    const auto [shape, window] = GetParam();
    std::size_t slow_outcomes = 0;
    for (std::size_t stride = 1; stride <= 64; ++stride) {
        const std::size_t offset = stride % 5;
        const std::size_t count =
            (StridedWorld::kPages - offset + stride - 1) / stride;
        for (const std::size_t writes : {std::size_t{0}, count / 3, count}) {
            for (const bool observe : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "stride " << stride << " writes " << writes
                             << " observer " << observe);
                StridedWorld a(shape); // per-page loop
                StridedWorld b(shape); // touchStrided
                RecordingObserver obs_a;
                RecordingObserver obs_b;
                if (observe) {
                    a.space->setFaultObserver(&obs_a);
                    b.space->setFaultObserver(&obs_b);
                }
                const PageIndex start = a.windowStart(window) + offset;
                ASSERT_EQ(start, b.windowStart(window) + offset);
                // Twice: the second pass is a reused instance's request.
                for (int pass = 0; pass < 2; ++pass) {
                    FaultTally tally_a;
                    for (std::size_t k = 0; k < count; ++k)
                        ++tally_a[a.space->touch(start + k * stride,
                                                 k < writes)];
                    const FaultTally tally_b =
                        b.space->touchStrided(start, count, stride, writes);
                    EXPECT_EQ(tally_a, tally_b) << "pass " << pass;
                    expectStridedWorldsEqual(a, b);
                    for (const FaultResult r :
                         {FaultResult::Cow, FaultResult::CowReuse,
                          FaultResult::BaseFill, FaultResult::MinorAnon})
                        slow_outcomes += tally_a[r];
                }
                EXPECT_EQ(obs_a.events, obs_b.events);
                a.space->setFaultObserver(nullptr);
                b.space->setFaultObserver(nullptr);
            }
        }
    }
    // Every shape sends some pages down the per-page path, so the
    // flush-and-re-seek interleaving is exercised, not just the walk.
    EXPECT_GT(slow_outcomes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TouchStridedProperty,
    ::testing::Combine(
        ::testing::Values(StridedShape::Fragmented, StridedShape::Base,
                          StridedShape::Cold, StridedShape::CowShared,
                          StridedShape::SoleOwner),
        ::testing::Values(StridedWindow::Anon, StridedWindow::Base)));

TEST(TouchStrided, BatchesBaseCowsAndServesHits)
{
    // The outcomes the walk resolves itself: BaseHit on reads, batched
    // BaseCow on writes, None on private pages.
    StridedWorld cold(StridedShape::Cold);
    cold.space->touchRange(cold.base_va, StridedWorld::kPages, false);
    const FaultTally first =
        cold.space->touchStrided(cold.base_va, 64, 8, 16);
    FaultTally expect;
    expect[FaultResult::BaseCow] = 16;
    expect[FaultResult::BaseHit] = 48;
    EXPECT_EQ(first, expect);
    // The 16 copies took consecutive frames, one single-page run each.
    EXPECT_EQ(cold.space->privateTable().runCount(), 16u);
    const FaultTally again =
        cold.space->touchStrided(cold.base_va, 64, 8, 16);
    FaultTally none;
    none[FaultResult::None] = 16;
    none[FaultResult::BaseHit] = 48;
    EXPECT_EQ(again, none);
}

TEST(TouchStrided, ZeroStridePanics)
{
    StridedWorld w(StridedShape::Cold);
    EXPECT_DEATH(w.space->touchStrided(w.anon_va, 2, 0, 0), "stride 0");
}

} // namespace
} // namespace catalyzer::mem
