// Layer probes run by the traced legs (see probes.cpp).
#pragma once

#include <cstddef>

#include "common.hpp"

namespace mpcx {
class World;
}

namespace perfbench {

/// Raw xdev ping-pong (isend_segments / irecv_direct) of `bytes`, `reps`
/// round trips; rank 0 records one "xdev"/`name` span per round trip.
void xdev_pingpong(mpcx::World& world, const Options& options, Report& report, const char* name,
                   std::size_t bytes, int reps);

/// 8-byte ping-pong on the mpdev Engine; "mpdev"/"rtt_8B" spans.
void mpdev_pingpong(mpcx::World& world, const Options& options, Report& report, int reps);

/// Rank 1 drains windows of 16 ANY_SOURCE/ANY_TAG Engine receives through
/// Engine::waitany; one "mpdev"/"waitany" span per call.
void mpdev_waitany(mpcx::World& world, const Options& options, Report& report, int rounds);

}  // namespace perfbench
