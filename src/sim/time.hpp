// time.hpp — the simulated time base shared by every module.
#pragma once

#include <cstdint>

namespace rtg::sim {

/// Simulated time in integral slots, matching the paper's integral
/// invocation instants.
using Time = std::int64_t;

}  // namespace rtg::sim
