#include "net/message.hpp"

namespace ccsim::net {

std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::GetS: return "GetS";
    case MsgType::GetX: return "GetX";
    case MsgType::Upgrade: return "Upgrade";
    case MsgType::DataS: return "DataS";
    case MsgType::DataX: return "DataX";
    case MsgType::UpgAck: return "UpgAck";
    case MsgType::Inval: return "Inval";
    case MsgType::InvalAck: return "InvalAck";
    case MsgType::FwdGetS: return "FwdGetS";
    case MsgType::FwdGetX: return "FwdGetX";
    case MsgType::OwnerDataS: return "OwnerDataS";
    case MsgType::OwnerDataX: return "OwnerDataX";
    case MsgType::SharedWB: return "SharedWB";
    case MsgType::ExclDone: return "ExclDone";
    case MsgType::FwdNack: return "FwdNack";
    case MsgType::Writeback: return "Writeback";
    case MsgType::WritebackAck: return "WritebackAck";
    case MsgType::ReplHint: return "ReplHint";
    case MsgType::UpdateReq: return "UpdateReq";
    case MsgType::UpdateGrant: return "UpdateGrant";
    case MsgType::Update: return "Update";
    case MsgType::UpdateAck: return "UpdateAck";
    case MsgType::Prune: return "Prune";
    case MsgType::Recall: return "Recall";
    case MsgType::RecallReply: return "RecallReply";
    case MsgType::AtomicReq: return "AtomicReq";
    case MsgType::AtomicReply: return "AtomicReply";
  }
  return "?";
}

std::optional<std::uint64_t> apply_atomic(AtomicOp op, std::uint64_t old,
                                          std::uint64_t v1, std::uint64_t v2) noexcept {
  switch (op) {
    case AtomicOp::FetchAdd: return old + v1;
    case AtomicOp::FetchStore: return v1;
    case AtomicOp::CompareSwap:
      if (old == v1) return v2;
      return std::nullopt;
  }
  return std::nullopt;
}

std::size_t Message::wire_bytes() const noexcept {
  if (has_block) return kHeaderBytes + mem::kBlockSize;
  switch (type) {
    // word-carrying control messages
    case MsgType::UpdateReq:
    case MsgType::Update:
    case MsgType::AtomicReq:
    case MsgType::AtomicReply:
      return kHeaderBytes + mem::kWordSize;
    default:
      return kHeaderBytes;
  }
}

} // namespace ccsim::net
