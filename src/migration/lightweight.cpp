#include "migration/lightweight.hpp"

#include <algorithm>
#include <array>

#include "migration/reliable.hpp"
#include "trace/trace.hpp"

namespace ampom::migration {

std::vector<mem::PageId> LightweightEngineBase::select_carried(MigrationContext& ctx) {
  mem::AddressSpace& aspace = ctx.process.aspace();
  const std::array<mem::PageId, 3> current = ctx.process.current_pages();
  std::vector<mem::PageId> carried(current.begin(), current.end());
  std::sort(carried.begin(), carried.end());
  carried.erase(std::unique(carried.begin(), carried.end()), carried.end());
  // Only pages that exist can be carried.
  std::erase_if(carried, [&](mem::PageId p) {
    return aspace.state(p) != mem::PageState::Local;
  });
  return carried;
}

LightweightEngineBase::Prepared LightweightEngineBase::apply_partition(
    MigrationContext& ctx, const std::vector<mem::PageId>& carried) {
  mem::AddressSpace& aspace = ctx.process.aspace();
  mem::PageTable& hpt = ctx.deputy.hpt();

  Prepared prepared;
  prepared.carried = carried;

  auto is_carried = [&](mem::PageId p) {
    return std::find(carried.begin(), carried.end(), p) != carried.end();
  };

  for (mem::PageId page = 0; page < aspace.page_count(); ++page) {
    switch (aspace.state(page)) {
      case mem::PageState::Local:
        if (is_carried(page)) {
          aspace.carry_over(page);
          hpt.set_loc(page, mem::PageTable::Loc::Remote);
          if (ctx.ledger != nullptr) {
            ctx.ledger->transfer(page, ctx.src, ctx.dst);
          }
        } else {
          aspace.demote_to_remote(page);
          hpt.set_loc(page, mem::PageTable::Loc::Here);
          ++prepared.left_behind;
        }
        break;
      case mem::PageState::Unallocated:
        break;  // stays Absent in the HPT
      default:
        throw std::logic_error("LightweightEngineBase: unexpected page state at freeze");
    }
  }
  return prepared;
}

void LightweightEngineBase::run_freeze(MigrationContext ctx, std::vector<mem::PageId> carried,
                                       sim::Bytes extra_bytes, sim::Time extra_pack,
                                       sim::Time extra_unpack,
                                       std::function<void(MigrationResult)> done) {
  MigrationResult result;
  result.initiated_at = ctx.sim.now();
  result.freeze_begin = ctx.sim.now();
  result.pages_transferred = carried.size();
  result.pages_sent_total = carried.size();

  const double src_speed = ctx.src_costs.cpu_speed;
  const sim::Time setup = ctx.src_costs.freeze_setup.scaled(1.0 / src_speed);
  const sim::Time pack = ctx.src_costs.pack_page.scaled(1.0 / src_speed) *
                             static_cast<std::int64_t>(carried.size()) +
                         extra_pack.scaled(1.0 / src_speed);
  const sim::Time send_at = ctx.sim.now() + setup + pack;

  const sim::Bytes page_bytes =
      static_cast<sim::Bytes>(carried.size()) * ctx.wire.page_message_bytes();
  result.bytes_transferred = ctx.wire.pcb_bytes + page_bytes + extra_bytes;

  // Phase spans share the migration's correlation id (pid): pack ends at the
  // already-known send instant, so both edges are recorded up front.
  if (ctx.trace != nullptr) {
    ctx.trace->async_begin(trace::Category::kMigration, "freeze_pack", ctx.sim.now(), ctx.src,
                           ctx.process.pid(), carried.size());
    ctx.trace->async_end(trace::Category::kMigration, "freeze_pack", send_at, ctx.src,
                         ctx.process.pid());
  }

  if (!ctx.reliable()) {
    // Classic fire-and-forget: partition now, time the resume off the
    // fabric's predicted arrivals (byte-identical to the seed protocol).
    apply_partition(ctx, carried);
    ctx.sim.schedule_at(send_at, [ctx, done = std::move(done), result, extra_bytes,
                                  extra_unpack, page_bytes]() mutable {
      const std::uint64_t pid = ctx.process.pid();
      ctx.fabric.send(net::Message{
          ctx.src, ctx.dst, ctx.wire.pcb_bytes,
          net::MigrationChunk{pid, net::MigrationChunk::Kind::Pcb, 1, false}});
      sim::Time last_arrival = ctx.fabric.send(net::Message{
          ctx.src, ctx.dst, page_bytes,
          net::MigrationChunk{pid, net::MigrationChunk::Kind::CurrentPages,
                              result.pages_transferred, extra_bytes == 0}});
      if (extra_bytes > 0) {
        last_arrival = ctx.fabric.send(net::Message{
            ctx.src, ctx.dst, extra_bytes,
            net::MigrationChunk{pid, net::MigrationChunk::Kind::MasterPageTable, 1, true}});
      }

      const double dst_speed = ctx.dst_costs.cpu_speed;
      const sim::Time unpack =
          ctx.dst_costs.unpack_page.scaled(1.0 / dst_speed) *
              static_cast<std::int64_t>(result.pages_transferred) +
          extra_unpack.scaled(1.0 / dst_speed) +
          ctx.dst_costs.restore_setup.scaled(1.0 / dst_speed);
      if (ctx.trace != nullptr) {
        ctx.trace->async_begin(trace::Category::kMigration, "transfer", ctx.sim.now(), ctx.src,
                               pid, result.pages_transferred);
        ctx.trace->async_end(trace::Category::kMigration, "transfer", last_arrival, ctx.src, pid);
        ctx.trace->async_begin(trace::Category::kMigration, "unpack_restore", last_arrival,
                               ctx.src, pid);
        ctx.trace->async_end(trace::Category::kMigration, "unpack_restore", last_arrival + unpack,
                             ctx.src, pid);
      }
      ctx.sim.schedule_at(last_arrival + unpack, [ctx, done = std::move(done), result]() mutable {
        result.resume_at = ctx.sim.now();
        finish_resume(ctx, result, done);
      });
    });
    return;
  }

  // Reliable: the repartition commits only once the destination verifiably
  // holds every chunk; until then the source image stays intact so a lost
  // destination costs nothing but the wasted wire time.
  //
  // The mutation knob reintroduces the bug this ordering prevents: partition
  // eagerly, and on a lost destination resume without rolling the ownership
  // back — exactly what the auditor's abort-trigger check must catch.
  const bool mutate_early_commit = ctx.mutate_skip_abort_rollback;
  if (mutate_early_commit) {
    apply_partition(ctx, carried);
  }
  ctx.sim.schedule_at(send_at, [ctx, carried = std::move(carried), done = std::move(done),
                                result, extra_bytes, extra_unpack, page_bytes,
                                mutate_early_commit]() mutable {
    std::vector<ReliableTransfer::Item> items;
    items.push_back({net::MigrationChunk::Kind::Pcb, 1, ctx.wire.pcb_bytes, false});
    items.push_back({net::MigrationChunk::Kind::CurrentPages, result.pages_transferred,
                     page_bytes, true});
    if (extra_bytes > 0) {
      items.push_back({net::MigrationChunk::Kind::MasterPageTable, 1, extra_bytes, false});
    }
    ReliableTransfer::run(
        ctx, std::move(items),
        /*on_delivered=*/
        [ctx, carried = std::move(carried), done, result, extra_unpack, mutate_early_commit](
            sim::Time delivered_at, const ReliableTransferStats& st) mutable {
          if (!mutate_early_commit) {
            apply_partition(ctx, carried);
          }
          result.chunk_retransmits = st.chunk_retransmits;
          result.pages_retransmitted = st.pages_retransmitted;
          result.pages_sent_total += st.pages_retransmitted;
          result.bytes_transferred += st.bytes_retransmitted;
          const double dst_speed = ctx.dst_costs.cpu_speed;
          const sim::Time unpack =
              ctx.dst_costs.unpack_page.scaled(1.0 / dst_speed) *
                  static_cast<std::int64_t>(result.pages_transferred) +
              extra_unpack.scaled(1.0 / dst_speed) +
              ctx.dst_costs.restore_setup.scaled(1.0 / dst_speed);
          ctx.sim.schedule_at(delivered_at + unpack,
                              [ctx, done = std::move(done), result]() mutable {
                                result.resume_at = ctx.sim.now();
                                finish_resume(ctx, result, done);
                              });
        },
        /*on_lost=*/
        [ctx, done, result](const ReliableTransferStats& st) mutable {
          result.chunk_retransmits = st.chunk_retransmits;
          result.pages_retransmitted = st.pages_retransmitted;
          result.pages_sent_total += st.pages_retransmitted;
          result.bytes_transferred += st.bytes_retransmitted;
          abort_unfreeze(ctx, result, MigrationOutcome::kDestinationLost, done);
        });
  });
}

void ThreePageEngine::execute(MigrationContext ctx, std::function<void(MigrationResult)> done) {
  std::vector<mem::PageId> carried = select_carried(ctx);
  run_freeze(std::move(ctx), std::move(carried), 0, sim::Time::zero(), sim::Time::zero(),
             std::move(done));
}

void AmpomEngine::execute(MigrationContext ctx, std::function<void(MigrationResult)> done) {
  std::vector<mem::PageId> carried = select_carried(ctx);
  const auto page_count = static_cast<std::int64_t>(ctx.process.aspace().page_count());
  // The MPT: 6 bytes per page on the wire, plus per-entry serialize /
  // install CPU — the linear component of AMPoM's freeze time (Fig. 5).
  const sim::Bytes mpt_bytes = ctx.process.aspace().page_count() * mem::kMptEntryBytes;
  const sim::Time mpt_pack = ctx.src_costs.mpt_pack_entry * page_count;
  const sim::Time mpt_unpack = ctx.dst_costs.mpt_unpack_entry * page_count;
  run_freeze(std::move(ctx), std::move(carried), mpt_bytes, mpt_pack, mpt_unpack,
             std::move(done));
}

}  // namespace ampom::migration
