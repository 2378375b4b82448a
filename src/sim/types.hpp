// Fundamental simulation-wide type aliases.
#pragma once

#include <cstdint>

namespace ccsim {

/// Simulated time, in processor cycles. The network and memory system run at
/// the same clock as the processors (paper, section 3.1).
using Cycle = std::uint64_t;

/// Identifies one node of the simulated multiprocessor (processor + cache +
/// local memory + directory slice + network interface).
using NodeId = std::uint32_t;

/// A simulated physical address. The shared segment lives at SHARED_BASE.
using Addr = std::uint64_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// Largest simulated machine (DESIGN.md section 5): the paper's 32-node
/// DASH-like machine. Sharer sets are 32-bit node bitmaps, so Machine
/// rejects any larger configuration up front.
inline constexpr unsigned kMaxProcs = 32;

} // namespace ccsim
