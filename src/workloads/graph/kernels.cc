#include "workloads/graph/kernels.hh"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/log.hh"

namespace syncron::workloads {

using core::Core;
using core::MemKind;

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
constexpr unsigned kMaxIterations = 128;
constexpr std::int64_t kPrScale = 1'000'000;

/** Shared state of one application run. */
struct Ctx
{
    NdpSystem &sys;
    PlacedGraph &placed;
    sync::Barrier bar;
    // Convergence flags: iteration i sets and reads slot i % 3.
    // Termination uses a double barrier: set -> barrier A -> read ->
    // (worker 0 resets slot (i+1) % 3) -> barrier B -> decide. Barrier A
    // fences all sets before any read; barrier B fences the reset away
    // from both iteration i+1's setters and its readers.
    Addr flagAddr[3] = {0, 0, 0};
    // Set by any changed worker, read only after the fencing barrier.
    bool hostFlag[3] = {false, false, false};
    std::vector<std::int64_t> value;
    std::vector<std::int64_t> aux;
    /// Iteration-start copy of value for the iterative apps' unlocked
    /// "worth locking?" checks. Reading the LIVE value outside a vertex
    /// lock would make the lock-request stream depend on the order in
    /// which same-iteration writes land; the snapshot (refreshed by
    /// worker 0 inside the double-barrier window) does not. Classic
    /// Jacobi-style stale reads — the locked section re-checks the
    /// live value.
    std::vector<std::int64_t> snap;
    /// Bumped under per-VERTEX locks; read at quiescence.
    std::uint64_t updates = 0;
    unsigned iterations = 0;
    unsigned total = 0;
    unsigned clientsPerUnit = 0;
    unsigned prIterations = 3;
    std::uint32_t src = 0;

    Ctx(NdpSystem &s, PlacedGraph &p) : sys(s), placed(p) {}
};

/** Number of 64 B lines covering @p vertexDegree 4 B neighbor ids. */
std::uint32_t
adjLines(std::uint32_t vertexDegree)
{
    return (vertexDegree * 4 + kCacheLineBytes - 1) / kCacheLineBytes;
}

// The per-iteration skeleton shared by the iterative apps: process owned
// vertices, publish the changed flag, barrier, read the flag. Worker 0
// resets the *next* iteration's flag before the barrier, so one barrier
// per iteration suffices (CRONO's alternating-flag pattern).

sim::Process
bfsWorker(Core &c, Ctx &ctx, unsigned idx)
{
    sync::SyncApi &api = ctx.sys.api();
    const Graph &g = ctx.placed.graph();
    const auto owned =
        ctx.placed.ownedBy(idx, ctx.total, ctx.clientsPerUnit);

    for (unsigned iter = 0; iter < kMaxIterations; ++iter) {
        bool changed = false;
        for (std::uint32_t v : owned) {
            if (ctx.snap[v] != static_cast<std::int64_t>(iter))
                continue;
            co_await c.load(ctx.placed.vertexData(v), 8,
                            MemKind::SharedRW);
            for (std::uint32_t l = 0; l < adjLines(g.degree(v)); ++l) {
                co_await c.load(ctx.placed.adjBase(v)
                                    + l * kCacheLineBytes,
                                kCacheLineBytes, MemKind::SharedRO);
            }
            for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                 ++e) {
                const std::uint32_t u = g.colIdx[e];
                if (ctx.snap[u] != -1) // stale filter (see Ctx::snap)
                    continue;
                co_await api.acquire(c, ctx.placed.vertexLock(u));
                if (ctx.value[u] == -1) { // re-check under the lock
                    ctx.value[u] = static_cast<std::int64_t>(iter) + 1;
                    co_await c.store(ctx.placed.vertexData(u), 8,
                                     MemKind::SharedRW);
                    ++ctx.updates;
                    changed = true;
                }
                co_await api.release(c, ctx.placed.vertexLock(u));
            }
        }
        // Every changed worker publishes the flag: gating the store on
        // a live read of hostFlag would make WHICH worker stores (a
        // simulated event) depend on the order the workers finish.
        if (changed) {
            ctx.hostFlag[iter % 3] = true;
            co_await c.store(ctx.flagAddr[iter % 3], 8,
                             MemKind::SharedRW);
        }
        co_await api.wait(c, ctx.bar);
        co_await c.load(ctx.flagAddr[iter % 3], 8, MemKind::SharedRW);
        const bool any = ctx.hostFlag[iter % 3];
        if (idx == 0) {
            ctx.hostFlag[(iter + 1) % 3] = false;
            co_await c.store(ctx.flagAddr[(iter + 1) % 3], 8,
                             MemKind::SharedRW);
            ctx.snap = ctx.value; // fenced by the two barriers
            ctx.iterations = iter + 1;
        }
        co_await api.wait(c, ctx.bar);
        if (!any)
            break;
    }
}

sim::Process
propagateWorker(Core &c, Ctx &ctx, unsigned idx, bool weighted)
{
    // cc (min-label propagation) and sssp (Bellman-Ford relaxation)
    // share the same push skeleton.
    sync::SyncApi &api = ctx.sys.api();
    const Graph &g = ctx.placed.graph();
    const auto owned =
        ctx.placed.ownedBy(idx, ctx.total, ctx.clientsPerUnit);

    for (unsigned iter = 0; iter < kMaxIterations; ++iter) {
        bool changed = false;
        for (std::uint32_t v : owned) {
            if (ctx.snap[v] >= kInf)
                continue;
            co_await c.load(ctx.placed.vertexData(v), 8,
                            MemKind::SharedRW);
            for (std::uint32_t l = 0; l < adjLines(g.degree(v)); ++l) {
                co_await c.load(ctx.placed.adjBase(v)
                                    + l * kCacheLineBytes,
                                kCacheLineBytes, MemKind::SharedRO);
            }
            for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                 ++e) {
                const std::uint32_t u = g.colIdx[e];
                // Relax from the iteration-start snapshot (Jacobi
                // style); the locked section re-checks the live value.
                const std::int64_t cand =
                    weighted ? ctx.snap[v] + ssspWeight(v, u)
                             : ctx.snap[v];
                if (ctx.snap[u] <= cand)
                    continue;
                co_await api.acquire(c, ctx.placed.vertexLock(u));
                if (ctx.value[u] > cand) {
                    ctx.value[u] = cand;
                    co_await c.store(ctx.placed.vertexData(u), 8,
                                     MemKind::SharedRW);
                    ++ctx.updates;
                    changed = true;
                }
                co_await api.release(c, ctx.placed.vertexLock(u));
            }
        }
        // See bfsWorker: unconditional publish keeps the event stream
        // independent of host interleaving.
        if (changed) {
            ctx.hostFlag[iter % 3] = true;
            co_await c.store(ctx.flagAddr[iter % 3], 8,
                             MemKind::SharedRW);
        }
        co_await api.wait(c, ctx.bar);
        co_await c.load(ctx.flagAddr[iter % 3], 8, MemKind::SharedRW);
        const bool any = ctx.hostFlag[iter % 3];
        if (idx == 0) {
            ctx.hostFlag[(iter + 1) % 3] = false;
            co_await c.store(ctx.flagAddr[(iter + 1) % 3], 8,
                             MemKind::SharedRW);
            ctx.snap = ctx.value; // fenced by the two barriers
            ctx.iterations = iter + 1;
        }
        co_await api.wait(c, ctx.bar);
        if (!any)
            break;
    }
}

sim::Process
prWorker(Core &c, Ctx &ctx, unsigned idx)
{
    sync::SyncApi &api = ctx.sys.api();
    const Graph &g = ctx.placed.graph();
    const auto owned =
        ctx.placed.ownedBy(idx, ctx.total, ctx.clientsPerUnit);

    for (unsigned iter = 0; iter < ctx.prIterations; ++iter) {
        // Push phase: scatter rank contributions to neighbors.
        for (std::uint32_t v : owned) {
            const std::uint32_t deg = g.degree(v);
            if (deg == 0)
                continue;
            co_await c.load(ctx.placed.vertexData(v), 8,
                            MemKind::SharedRW);
            const std::int64_t contrib = ctx.value[v] / deg;
            for (std::uint32_t l = 0; l < adjLines(deg); ++l) {
                co_await c.load(ctx.placed.adjBase(v)
                                    + l * kCacheLineBytes,
                                kCacheLineBytes, MemKind::SharedRO);
            }
            for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                 ++e) {
                const std::uint32_t u = g.colIdx[e];
                co_await api.acquire(c, ctx.placed.vertexLock(u));
                co_await c.load(ctx.placed.vertexData(u), 8,
                                MemKind::SharedRW);
                ctx.aux[u] += contrib;
                co_await c.store(ctx.placed.vertexData(u), 8,
                                 MemKind::SharedRW);
                ++ctx.updates;
                co_await api.release(c, ctx.placed.vertexLock(u));
            }
        }
        co_await api.wait(c, ctx.bar);

        // Gather phase: fold accumulators into ranks (owned data only).
        for (std::uint32_t v : owned) {
            ctx.value[v] = kPrScale * 15 / 100
                               / static_cast<std::int64_t>(
                                     g.numVertices ? g.numVertices : 1)
                           + ctx.aux[v] * 85 / 100;
            ctx.aux[v] = 0;
            co_await c.store(ctx.placed.vertexData(v), 8,
                             MemKind::SharedRW);
        }
        co_await api.wait(c, ctx.bar);
        if (idx == 0)
            ctx.iterations = iter + 1;
    }
}

sim::Process
tfWorker(Core &c, Ctx &ctx, unsigned idx)
{
    // Teenage followers: one pass, locks only (Table 6: no barrier).
    sync::SyncApi &api = ctx.sys.api();
    const Graph &g = ctx.placed.graph();
    const auto owned =
        ctx.placed.ownedBy(idx, ctx.total, ctx.clientsPerUnit);

    for (std::uint32_t v : owned) {
        if (tfAge(v) >= 20)
            continue;
        for (std::uint32_t l = 0; l < adjLines(g.degree(v)); ++l) {
            co_await c.load(ctx.placed.adjBase(v) + l * kCacheLineBytes,
                            kCacheLineBytes, MemKind::SharedRO);
        }
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            const std::uint32_t u = g.colIdx[e];
            co_await api.acquire(c, ctx.placed.vertexLock(u));
            co_await c.load(ctx.placed.vertexData(u), 8,
                            MemKind::SharedRW);
            ++ctx.value[u];
            co_await c.store(ctx.placed.vertexData(u), 8,
                             MemKind::SharedRW);
            ++ctx.updates;
            co_await api.release(c, ctx.placed.vertexLock(u));
        }
    }
    if (idx == 0)
        ctx.iterations = 1;
}

sim::Process
tcWorker(Core &c, Ctx &ctx, unsigned idx)
{
    sync::SyncApi &api = ctx.sys.api();
    const Graph &g = ctx.placed.graph();
    const auto owned =
        ctx.placed.ownedBy(idx, ctx.total, ctx.clientsPerUnit);

    for (std::uint32_t v : owned) {
        for (std::uint32_t l = 0; l < adjLines(g.degree(v)); ++l) {
            co_await c.load(ctx.placed.adjBase(v) + l * kCacheLineBytes,
                            kCacheLineBytes, MemKind::SharedRO);
        }
        std::int64_t triangles = 0;
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            const std::uint32_t u = g.colIdx[e];
            if (u <= v)
                continue;
            for (std::uint32_t l = 0; l < adjLines(g.degree(u)); ++l) {
                co_await c.load(ctx.placed.adjBase(u)
                                    + l * kCacheLineBytes,
                                kCacheLineBytes, MemKind::SharedRO);
            }
            // Sorted-list intersection of adj(v) and adj(u), counting
            // common neighbors w > u (each triangle counted once).
            std::uint32_t i = g.rowPtr[v], j = g.rowPtr[u];
            std::int64_t common = 0;
            while (i < g.rowPtr[v + 1] && j < g.rowPtr[u + 1]) {
                const std::uint32_t a = g.colIdx[i], b = g.colIdx[j];
                if (a < b) {
                    ++i;
                } else if (b < a) {
                    ++j;
                } else {
                    if (a > u)
                        ++common;
                    ++i;
                    ++j;
                }
            }
            co_await c.compute(
                std::min<std::uint32_t>(g.degree(v) + g.degree(u), 128));
            triangles += common;
        }
        if (triangles != 0) {
            co_await api.acquire(c, ctx.placed.vertexLock(v));
            co_await c.load(ctx.placed.vertexData(v), 8,
                            MemKind::SharedRW);
            ctx.value[v] += triangles;
            co_await c.store(ctx.placed.vertexData(v), 8,
                             MemKind::SharedRW);
            ++ctx.updates;
            co_await api.release(c, ctx.placed.vertexLock(v));
        }
    }
    co_await api.wait(c, ctx.bar);
    if (idx == 0)
        ctx.iterations = 1;
}

} // namespace

const char *
graphAppName(GraphApp app)
{
    switch (app) {
      case GraphApp::Bfs: return "bfs";
      case GraphApp::Cc: return "cc";
      case GraphApp::Sssp: return "sssp";
      case GraphApp::Pr: return "pr";
      case GraphApp::Tf: return "tf";
      case GraphApp::Tc: return "tc";
    }
    return "?";
}

GraphApp
graphAppFromName(const std::string &name)
{
    for (GraphApp app : kAllGraphApps) {
        if (name == graphAppName(app))
            return app;
    }
    SYNCRON_FATAL("unknown graph app '" << name << "'");
}

std::uint32_t
ssspWeight(std::uint32_t u, std::uint32_t v)
{
    return ((u ^ v) % 15) + 1;
}

std::uint32_t
tfAge(std::uint32_t v)
{
    return (v * 2654435761u) % 30;
}

GraphRunResult
runGraphApp(NdpSystem &sys, PlacedGraph &placed, GraphApp app,
            unsigned prIterations)
{
    Ctx ctx(sys, placed);
    const Graph &g = placed.graph();
    ctx.total = sys.numClientCores();
    ctx.clientsPerUnit = sys.config().clientCoresPerUnit;
    ctx.prIterations = prIterations;
    ctx.bar = sys.api().createBarrier(0, ctx.total);
    for (Addr &flag : ctx.flagAddr)
        flag = sys.machine().addrSpace().allocIn(0, 8, 8);

    // Source: the highest-degree vertex (a meaningful frontier seed).
    std::uint32_t src = 0;
    for (std::uint32_t v = 0; v < g.numVertices; ++v) {
        if (g.degree(v) > g.degree(src))
            src = v;
    }
    ctx.src = src;

    switch (app) {
      case GraphApp::Bfs:
        ctx.value.assign(g.numVertices, -1);
        ctx.value[src] = 0;
        break;
      case GraphApp::Cc:
        ctx.value.resize(g.numVertices);
        for (std::uint32_t v = 0; v < g.numVertices; ++v)
            ctx.value[v] = v;
        break;
      case GraphApp::Sssp:
        ctx.value.assign(g.numVertices, kInf);
        ctx.value[src] = 0;
        break;
      case GraphApp::Pr:
        ctx.value.assign(g.numVertices,
                         kPrScale / std::max(1u, g.numVertices));
        ctx.aux.assign(g.numVertices, 0);
        break;
      case GraphApp::Tf:
      case GraphApp::Tc:
        ctx.value.assign(g.numVertices, 0);
        break;
    }
    ctx.snap = ctx.value;

    const Tick startTime = sys.elapsed();
    for (unsigned i = 0; i < ctx.total; ++i) {
        core::Core &c = sys.clientCore(i);
        switch (app) {
          case GraphApp::Bfs: sys.spawn(bfsWorker(c, ctx, i)); break;
          case GraphApp::Cc:
            sys.spawn(propagateWorker(c, ctx, i, false));
            break;
          case GraphApp::Sssp:
            sys.spawn(propagateWorker(c, ctx, i, true));
            break;
          case GraphApp::Pr: sys.spawn(prWorker(c, ctx, i)); break;
          case GraphApp::Tf: sys.spawn(tfWorker(c, ctx, i)); break;
          case GraphApp::Tc: sys.spawn(tcWorker(c, ctx, i)); break;
        }
    }
    sys.run();

    GraphRunResult result;
    result.time = sys.elapsed() - startTime;
    result.updates = ctx.updates;
    result.iterations = ctx.iterations;
    result.values = std::move(ctx.value);
    return result;
}

// -- Host references ---------------------------------------------------

std::vector<std::int64_t>
hostBfs(const Graph &g, std::uint32_t src)
{
    std::vector<std::int64_t> level(g.numVertices, -1);
    std::deque<std::uint32_t> queue{src};
    level[src] = 0;
    while (!queue.empty()) {
        const std::uint32_t v = queue.front();
        queue.pop_front();
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            const std::uint32_t u = g.colIdx[e];
            if (level[u] == -1) {
                level[u] = level[v] + 1;
                queue.push_back(u);
            }
        }
    }
    return level;
}

std::vector<std::int64_t>
hostCc(const Graph &g)
{
    std::vector<std::int64_t> label(g.numVertices);
    for (std::uint32_t v = 0; v < g.numVertices; ++v)
        label[v] = v;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t v = 0; v < g.numVertices; ++v) {
            for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                 ++e) {
                const std::uint32_t u = g.colIdx[e];
                if (label[u] < label[v]) {
                    label[v] = label[u];
                    changed = true;
                }
            }
        }
    }
    return label;
}

std::vector<std::int64_t>
hostSssp(const Graph &g, std::uint32_t src)
{
    std::vector<std::int64_t> dist(g.numVertices, kInf);
    dist[src] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t v = 0; v < g.numVertices; ++v) {
            if (dist[v] >= kInf)
                continue;
            for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                 ++e) {
                const std::uint32_t u = g.colIdx[e];
                const std::int64_t cand = dist[v] + ssspWeight(v, u);
                if (cand < dist[u]) {
                    dist[u] = cand;
                    changed = true;
                }
            }
        }
    }
    return dist;
}

std::vector<std::int64_t>
hostTf(const Graph &g)
{
    std::vector<std::int64_t> count(g.numVertices, 0);
    for (std::uint32_t v = 0; v < g.numVertices; ++v) {
        if (tfAge(v) >= 20)
            continue;
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e)
            ++count[g.colIdx[e]];
    }
    return count;
}

} // namespace syncron::workloads
