#include "proto/home_controller.hpp"

namespace ccsim::proto {

using net::Message;
using net::MsgType;

void HomeController::on_message(const Message& msg) {
  if (ctx_.mode_of(mem::block_of(msg.addr)) == Protocol::WI)
    wi_on_message(msg);
  else
    update_on_message(msg);
}

void HomeController::reply_at(Cycle ready, const Message& m) {
  const std::uint32_t slot = replies_.acquire();
  replies_[slot] = m;
  ctx_.q.schedule_thunk(ready, &HomeController::reply_thunk, this, slot);
}

void HomeController::reply_thunk(void* self, std::uint64_t slot) {
  auto& home = *static_cast<HomeController*>(self);
  const auto i = static_cast<std::uint32_t>(slot);
  Message& m = home.replies_[i];
  if (m.has_block) m.block = home.memory_.read_block(mem::block_of(m.addr));
  m.src = home.id_;
  // Network::send copies the message into its own pool, so the slot is
  // free again before anything the send triggers runs.
  home.ctx_.net.send(m);
  home.replies_.release(i);
}

void HomeController::absorb_writeback(const Message& wb) {
  const mem::BlockAddr b = mem::block_of(wb.addr);
  memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
  memory_.write_block(b, wb.block);
  Message ack;
  ack.type = MsgType::WritebackAck;
  ack.dst = wb.src;
  ack.addr = mem::block_base(b);
  send(ack);
}

} // namespace ccsim::proto
