#include "workloads/micro/primitives.hh"

#include "common/log.hh"
#include "system/system.hh"

namespace syncron::workloads {

using core::Core;

namespace {

sim::Process
lockLoop(NdpSystem &sys, Core &c, sync::Lock lock, unsigned interval,
         unsigned ops)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.acquire(c, lock);
        // Empty critical section (Fig. 10).
        co_await api.release(c, lock);
    }
}

sim::Process
barrierLoop(NdpSystem &sys, Core &c, sync::Barrier bar, unsigned interval,
            unsigned ops)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.wait(c, bar);
    }
}

sim::Process
semWaitLoop(NdpSystem &sys, Core &c, sync::Semaphore sem,
            unsigned interval, unsigned ops)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.wait(c, sem);
    }
}

sim::Process
semPostLoop(NdpSystem &sys, Core &c, sync::Semaphore sem,
            unsigned interval, unsigned ops)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.post(c, sem);
    }
}

sim::Process
condWaitLoop(NdpSystem &sys, Core &c, sync::CondVar cond,
             sync::Lock lock, unsigned interval, unsigned ops,
             std::int64_t &tokens)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.acquire(c, lock);
        while (tokens == 0)
            co_await api.wait(c, cond, lock);
        --tokens;
        co_await api.release(c, lock);
    }
}

sim::Process
condSignalLoop(NdpSystem &sys, Core &c, sync::CondVar cond,
               sync::Lock lock, unsigned interval, unsigned ops,
               std::int64_t &tokens)
{
    sync::SyncApi &api = sys.api();
    for (unsigned i = 0; i < ops; ++i) {
        co_await c.compute(interval);
        co_await api.acquire(c, lock);
        ++tokens;
        co_await api.signal(c, cond);
        co_await api.release(c, lock);
    }
}

sim::Process
semFanoutLoop(NdpSystem &sys, Core &c,
              const std::vector<sync::Semaphore> &sems, unsigned rounds)
{
    sync::SyncApi &api = sys.api();
    sync::SyncBatch batch(api, c);
    for (unsigned r = 0; r < rounds; ++r) {
        co_await c.compute(50);

        // Fan the posts out in one batch and overlap them with compute;
        // posts are req_async, so their futures resolve at issue.
        for (const sync::Semaphore &sem : sems)
            batch.post(sem);
        std::vector<sync::SyncFuture> posts = batch.submit();
        co_await c.compute(20);
        for (sync::SyncFuture &f : posts)
            co_await f;

        // Then collect the whole set back in a second batch.
        for (const sync::Semaphore &sem : sems)
            batch.wait(sem);
        std::vector<sync::SyncFuture> waits = batch.submit();
        for (sync::SyncFuture &f : waits)
            co_await f;
    }
}

} // namespace

SemFanoutWorkload::SemFanoutWorkload(NdpSystem &sys, unsigned width,
                                     unsigned rounds, bool contended)
{
    SYNCRON_ASSERT(width >= 1, "semaphore fan-out of zero width");
    const unsigned n = sys.numClientCores();
    sync::SyncApi &api = sys.api();

    if (contended) {
        // One shared set homed in unit 0; every post/wait contends.
        std::vector<sync::Semaphore> shared;
        shared.reserve(width);
        for (unsigned w = 0; w < width; ++w)
            shared.push_back(api.createSemaphore(0, 0));
        sets_.push_back(std::move(shared));
        for (unsigned i = 0; i < n; ++i) {
            sys.spawn(semFanoutLoop(sys, sys.clientCore(i), sets_[0],
                                    rounds));
        }
        return;
    }

    // Private per-core sets homed with their core: the uncontended
    // regime, where each core consumes exactly the resources it posts.
    sets_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        Core &c = sys.clientCore(i);
        std::vector<sync::Semaphore> own;
        own.reserve(width);
        for (unsigned w = 0; w < width; ++w)
            own.push_back(api.createSemaphore(c.unit(), 0));
        sets_.push_back(std::move(own));
    }
    for (unsigned i = 0; i < n; ++i)
        sys.spawn(semFanoutLoop(sys, sys.clientCore(i), sets_[i], rounds));
}

const char *
primitiveName(Primitive p)
{
    switch (p) {
      case Primitive::Lock: return "lock";
      case Primitive::Barrier: return "barrier";
      case Primitive::Semaphore: return "semaphore";
      case Primitive::CondVar: return "condvar";
    }
    return "?";
}

PrimitiveWorkload::PrimitiveWorkload(NdpSystem &sys, Primitive primitive,
                                     unsigned interval,
                                     unsigned opsPerCore)
{
    const unsigned n = sys.numClientCores();

    switch (primitive) {
      case Primitive::Lock: {
        const sync::Lock lock = sys.api().createLock(0);
        for (unsigned i = 0; i < n; ++i) {
            sys.spawn(lockLoop(sys, sys.clientCore(i), lock, interval,
                               opsPerCore));
        }
        break;
      }
      case Primitive::Barrier: {
        const sync::Barrier bar = sys.api().createBarrier(0, n);
        for (unsigned i = 0; i < n; ++i) {
            sys.spawn(barrierLoop(sys, sys.clientCore(i), bar, interval,
                                  opsPerCore));
        }
        break;
      }
      case Primitive::Semaphore: {
        // Waiters and posters interleave across cores (and therefore
        // across NDP units), as in a real producer/consumer split.
        const sync::Semaphore sem = sys.api().createSemaphore(0, 0);
        for (unsigned i = 0; i < n; ++i) {
            if (i % 2 == 0) {
                sys.spawn(semWaitLoop(sys, sys.clientCore(i), sem,
                                      interval, opsPerCore));
            } else {
                sys.spawn(semPostLoop(sys, sys.clientCore(i), sem,
                                      interval, opsPerCore));
            }
        }
        break;
      }
      case Primitive::CondVar: {
        const sync::CondVar cond = sys.api().createCondVar(0);
        const sync::Lock lock = sys.api().createLock(0);
        for (unsigned i = 0; i < n; ++i) {
            if (i % 2 == 0) {
                sys.spawn(condWaitLoop(sys, sys.clientCore(i), cond,
                                       lock, interval, opsPerCore,
                                       condTokens_));
            } else {
                sys.spawn(condSignalLoop(sys, sys.clientCore(i), cond,
                                         lock, interval, opsPerCore,
                                         condTokens_));
            }
        }
        break;
      }
    }
}

MicroResult
runPrimitiveBench(Scheme scheme, Primitive primitive, unsigned interval,
                  unsigned opsPerCore, unsigned numUnits,
                  unsigned clientsPerUnit)
{
    SystemConfig cfg = SystemConfig::make(scheme, numUnits,
                                          clientsPerUnit);
    NdpSystem sys(cfg);
    PrimitiveWorkload workload(sys, primitive, interval, opsPerCore);
    sys.run();

    MicroResult result;
    result.time = sys.elapsed();
    result.syncOps = sys.stats().syncOps;
    return result;
}

} // namespace syncron::workloads
