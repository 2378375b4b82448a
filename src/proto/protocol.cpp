#include "proto/protocol.hpp"

#include "sim/check.hpp"

namespace ccsim::proto {

using net::MsgType;

bool is_home_bound(MsgType t) noexcept {
  switch (t) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::Upgrade:
    case MsgType::SharedWB:
    case MsgType::ExclDone:
    case MsgType::FwdNack:
    case MsgType::Writeback:
    case MsgType::ReplHint:
    case MsgType::UpdateReq:
    case MsgType::Prune:
    case MsgType::RecallReply:
    case MsgType::AtomicReq:
      return true;
    default:
      return false;
  }
}

std::uint8_t domain_of_protocol(Protocol p) {
  switch (p) {
    case Protocol::WI: return 1;
    case Protocol::PU: return 2;
    case Protocol::CU: return 3;
    case Protocol::Hybrid: break;
  }
  CCSIM_CHECK(false, "cannot bind a region to the Hybrid pseudo-protocol");
  return 0;
}

} // namespace ccsim::proto
