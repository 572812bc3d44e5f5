// Layer probes for the traced run: ping-pong straight on the xdev Device
// (bypassing mpdev and core) and on the mpdev Engine (bypassing core), plus
// an Engine::waitany probe. Each probe runs between world ranks 0 and 1 on
// a private context, and records one span per round trip or call.
#include <array>

#include "bufx/buffer.hpp"
#include "core/intracomm.hpp"
#include "core/world.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

/// Context id no communicator allocates (World hands them out from 2 up,
/// two per communicator), so probe traffic never meets library traffic.
constexpr int kProbeCtx = 0x5EED0;
constexpr int kProbeTag = 7;

/// Rank 1 tells rank 0 its receive is posted (through core, one message).
void ready_token(mpcx::World& world, bool sender) {
  int token = 1;
  mpcx::Intracomm& comm = world.COMM_WORLD();
  if (sender) {
    comm.Send(&token, 0, 1, mpcx::types::INT(), 0, 0x3EAD);
  } else {
    comm.Recv(&token, 0, 1, mpcx::types::INT(), 1, 0x3EAD);
  }
}

std::int64_t probe_value(std::uint64_t key, int i) {
  return static_cast<std::int64_t>(derive(key, static_cast<std::uint64_t>(i)) >> 1);
}

}  // namespace

void xdev_pingpong(mpcx::World& world, const Options& options, Report& report, const char* name,
                   std::size_t bytes, int reps) {
  const int rank = world.Rank();
  if (rank > 1) return;
  mpcx::xdev::Device& dev = world.engine().device();
  const mpcx::xdev::ProcessID peer = world.engine().pid_of(1 - rank);
  std::array<std::byte, mpcx::buf::Buffer::kSectionHeaderBytes> header{};
  mpcx::buf::encode_section_header(header, mpcx::buf::TypeCode::Byte,
                                   static_cast<std::uint32_t>(bytes));
  // Two alternating payloads, so a landing span left stale fails the check.
  const std::vector<Payload> payloads = make_payloads(derive(options.seed, 0xD0 + bytes), bytes, 2);
  std::array<std::vector<std::byte>, 2> land{std::vector<std::byte>(bytes),
                                             std::vector<std::byte>(bytes)};
  std::array<std::array<std::byte, 8>, 2> land_header{};
  auto landing = [&](int k) {
    return mpcx::xdev::RecvSpan{land_header[k].data(), land[k].data(), bytes};
  };
  auto verify = [&](const mpcx::xdev::DevStatus& status, int k) {
    const std::uint64_t expect = payloads[k].sum ^ (options.corrupt_expect ? 1u : 0u);
    report.op(status.error == mpcx::ErrCode::Success && status.direct &&
              checksum(land[k]) == expect);
  };

  if (rank == 1) {
    mpcx::xdev::DevRequest pending = dev.irecv_direct(landing(0), peer, kProbeTag, kProbeCtx);
    ready_token(world, true);
    for (int i = 0; i < reps; ++i) {
      const int k = i & 1;
      const mpcx::xdev::DevStatus status = pending->wait();
      if (i + 1 < reps) pending = dev.irecv_direct(landing(k ^ 1), peer, kProbeTag, kProbeCtx);
      const mpcx::xdev::SendSegment echo{land[k].data(), bytes};
      dev.isend_segments(header, {&echo, 1}, peer, kProbeTag, kProbeCtx)->wait();
      verify(status, k);
    }
    return;
  }
  ready_token(world, false);
  for (int i = 0; i < reps; ++i) {
    const int k = i & 1;
    mpcx::xdev::DevStatus status;
    {
      trace::Span span("xdev", name, static_cast<std::uint64_t>(i) + 1);
      mpcx::xdev::DevRequest recv = dev.irecv_direct(landing(k), peer, kProbeTag, kProbeCtx);
      const mpcx::xdev::SendSegment seg{payloads[k].bytes.data(), bytes};
      dev.isend_segments(header, {&seg, 1}, peer, kProbeTag, kProbeCtx)->wait();
      status = recv->wait();
    }
    verify(status, k);
  }
}

void mpdev_pingpong(mpcx::World& world, const Options& options, Report& report, int reps) {
  const int rank = world.Rank();
  if (rank > 1) return;
  mpcx::mpdev::Engine& engine = world.engine();
  const std::uint64_t key = derive(options.seed, 0xE1);
  const std::int64_t corrupt = options.corrupt_expect ? 1 : 0;
  auto send_buf = world.take_buffer(64);
  auto recv_buf = world.take_buffer(64);
  auto send_value = [&](std::int64_t value) {
    send_buf->clear();
    send_buf->write(std::span<const std::int64_t>(&value, 1));
    send_buf->commit();
    engine.send(*send_buf, 1 - rank, kProbeTag, kProbeCtx);
  };
  auto read_value = [&](const mpcx::mpdev::Status& status) {
    std::int64_t value = -1;
    if (status.error == mpcx::ErrCode::Success) recv_buf->read(std::span<std::int64_t>(&value, 1));
    return value;
  };
  for (int i = 0; i < reps; ++i) {
    const std::int64_t expect = probe_value(key, i);
    recv_buf->clear();
    if (rank == 1) {
      const std::int64_t got = read_value(engine.recv(*recv_buf, 0, kProbeTag, kProbeCtx));
      send_value(got);
      report.op(got + corrupt == expect);
      continue;
    }
    mpcx::mpdev::Status status;
    {
      trace::Span span("mpdev", "rtt_8B", static_cast<std::uint64_t>(i) + 1);
      mpcx::mpdev::Request recv = engine.irecv(*recv_buf, 1, kProbeTag, kProbeCtx);
      send_value(expect);
      status = recv.wait();
    }
    report.op(read_value(status) + corrupt == expect);
  }
}

void mpdev_waitany(mpcx::World& world, const Options& options, Report& report, int rounds) {
  constexpr int kWindow = 16;
  const int rank = world.Rank();
  if (rank > 1) return;
  mpcx::mpdev::Engine& engine = world.engine();
  const std::uint64_t key = derive(options.seed, 0xE2);
  const std::int64_t corrupt = options.corrupt_expect ? 1 : 0;
  std::vector<std::unique_ptr<mpcx::buf::Buffer>> bufs;
  for (int j = 0; j < kWindow; ++j) bufs.push_back(world.take_buffer(64));
  for (int round = 0; round < rounds; ++round) {
    if (rank == 0) {
      ready_token(world, false);
      for (int j = 0; j < kWindow; ++j) {
        const std::int64_t value = probe_value(key, round * kWindow + j);
        bufs[j]->clear();
        bufs[j]->write(std::span<const std::int64_t>(&value, 1));
        bufs[j]->commit();
        engine.send(*bufs[j], 1, j, kProbeCtx);
      }
      continue;
    }
    std::vector<mpcx::mpdev::Request> requests;
    for (int j = 0; j < kWindow; ++j) {
      bufs[j]->clear();
      requests.push_back(
          engine.irecv(*bufs[j], mpcx::mpdev::kAnySource, mpcx::mpdev::kAnyTag, kProbeCtx));
    }
    ready_token(world, true);
    for (int done = 0; done < kWindow; ++done) {
      int index = -1;
      mpcx::mpdev::Status status;
      {
        trace::Span span("mpdev", "waitany", static_cast<std::uint64_t>(round) + 1);
        status = engine.waitany(requests, index);
      }
      std::int64_t got = -1;
      const bool ok = index >= 0 && status.error == mpcx::ErrCode::Success;
      if (ok) bufs[index]->read(std::span<std::int64_t>(&got, 1));
      report.op(ok && got + corrupt == probe_value(key, round * kWindow + status.tag));
      if (index >= 0) requests[index] = mpcx::mpdev::Request();
    }
  }
}

}  // namespace perfbench
