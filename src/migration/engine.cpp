#include "migration/engine.hpp"

#include <stdexcept>

#include "trace/trace.hpp"

namespace ampom::migration {

void MigrationEngine::finish_resume(MigrationContext& ctx, MigrationResult result,
                                    const std::function<void(MigrationResult)>& done) {
  // Reliable-mode ack chains can deliver the final ack on the source node's
  // partition. The commit itself mutates cross-partition state (the process's
  // placement, the deputy's service target, the world's load accounting via
  // `done`), so hop to the barrier context first; the hop is a deterministic
  // function of the event schedule, not of the worker count.
  if (ctx.sim.current_partition() != 0) {
    ctx.sim.post_global(
        [ctx, result, done]() mutable { finish_resume(ctx, result, done); });
    return;
  }
  ctx.process.set_current_node(ctx.dst);
  ctx.deputy.begin_service(ctx.dst);
  if (ctx.on_before_resume) {
    ctx.on_before_resume();
  }
  ctx.executor.resume_migrated(ctx.dst_costs);
  if (ctx.trace != nullptr) {
    ctx.trace->instant(trace::Category::kMigration, "resume", ctx.sim.now(), ctx.dst,
                       ctx.process.pid(), result.pages_transferred);
    ctx.trace->async_end(trace::Category::kMigration, "migration", ctx.sim.now(), ctx.src,
                         ctx.process.pid(), result.pages_transferred);
  }
  if (done) {
    done(result);
  }
}

void MigrationEngine::abort_unfreeze(MigrationContext& ctx, MigrationResult result,
                                     MigrationOutcome outcome,
                                     const std::function<void(MigrationResult)>& done) {
  // Same barrier hop as finish_resume: the abort accounting in `done` is
  // world-global state.
  if (ctx.sim.current_partition() != 0) {
    ctx.sim.post_global([ctx, result, outcome, done]() mutable {
      abort_unfreeze(ctx, result, outcome, done);
    });
    return;
  }
  result.outcome = outcome;
  result.resume_at = ctx.sim.now();
  result.pages_transferred = 0;
  ctx.executor.resume_migrated(ctx.src_costs);
  if (ctx.trace != nullptr) {
    ctx.trace->instant(trace::Category::kMigration, "abort_unfreeze", ctx.sim.now(), ctx.src,
                       ctx.process.pid(), static_cast<std::uint64_t>(outcome));
    ctx.trace->async_end(trace::Category::kMigration, "migration", ctx.sim.now(), ctx.src,
                         ctx.process.pid());
  }
  if (done) {
    done(result);
  }
}

void migrate_process(MigrationContext ctx, MigrationEngine& engine,
                     std::function<void(MigrationResult)> done) {
  if (ctx.src == ctx.dst) {
    throw std::invalid_argument("migrate_process: source and destination are the same node");
  }
  if (ctx.trace != nullptr) {
    ctx.trace->async_begin(trace::Category::kMigration, "migration", ctx.sim.now(), ctx.src,
                           ctx.process.pid(), ctx.dst);
  }
  // Engines drive the whole transfer from the home/deputy side and commit by
  // touching world-global state, so they execute in the barrier context.
  // post_global is inline when already there (the balancer tick path, and
  // every event of a world without node partitions) and defers to the next
  // window fence when the request originated inside a partition (the freeze
  // grant fires inside a burst event on the process's partition).
  if (!engine.needs_freeze_first()) {
    sim::Simulator& sim = ctx.sim;
    sim.post_global([&engine, ctx = std::move(ctx), done = std::move(done)]() mutable {
      engine.execute(std::move(ctx), std::move(done));
    });
    return;
  }
  proc::Executor& executor = ctx.executor;
  executor.request_freeze(
      [&engine, ctx = std::move(ctx), done = std::move(done)]() mutable {
        if (ctx.trace != nullptr) {
          ctx.trace->instant(trace::Category::kMigration, "frozen", ctx.sim.now(), ctx.src,
                             ctx.process.pid());
        }
        sim::Simulator& sim = ctx.sim;
        sim.post_global([&engine, ctx = std::move(ctx), done = std::move(done)]() mutable {
          engine.execute(std::move(ctx), std::move(done));
        });
      });
}

}  // namespace ampom::migration
