/// \file micro_ckpt_io.cpp
/// Checkpoint I/O microbenchmark: commit latency and restore bandwidth per
/// storage backend (memory / file / mmap / log) at several image sizes,
/// comparing the serial copy→CRC→write reference against the CkptWriter
/// pipeline that overlaps the CRC with backend writes.
///
///   micro_ckpt_io --backends=memory,file,mmap,log --sizes-mb=2,8,32
///                 --reps=4 --dir=/tmp/abftc_ckpt_io --chunk-kb=1024
///                 --committers=1,2,4,8 --out=BENCH_ckpt_io.json
///
/// Per (backend, size) the artifact reports best-of-reps serial and async
/// commit times, the speedup `serial_ms / async_ms`, and restore bandwidth;
/// `best_async_speedup` is the maximum speedup observed (CI gates it — the
/// pipeline must beat write-then-CRC somewhere — and skips the gate on
/// single-core runners where there is no second core to hide the CRC on).
///
/// A second scenario measures the *commit storm*: per (backend, committer
/// count) a fresh store takes `committers` concurrent writer threads, each
/// committing several fixed-size snapshots; the `committer_scaling` block
/// reports aggregate commit throughput per cell. Backends that don't
/// support concurrent committers are serialized on a mutex — their flat
/// (or falling) curve against the log backend's rising one is the point of
/// the comparison, and CI gates log ≥ 2× file at 4 committers.
///
/// It also times common::crc32 (PCLMUL-folded where the CPU has it) against
/// the portable slicing-by-8 reference on a cache-resident 1 MiB buffer in
/// the same run: `crc32_gbps`, `crc32_portable_gbps`, their ratio `crc32_speedup`
/// and `crc32_pclmul` (false when the CPU lacks the instruction, in which
/// case CI skips the ≥ 4× gate on the ratio).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/writer.hpp"
#include "common/cli.hpp"
#include "common/crc32.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"

using namespace abftc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string backend;
  std::size_t bytes = 0;
  double serial_s = 0.0;
  double async_s = 0.0;
  double restore_s = 0.0;
};

std::string backend_spec(const std::string& kind, const std::string& dir,
                         std::size_t largest_bytes) {
  if (kind == "memory") return "memory";
  if (kind == "file") return "file:" + dir + "/file_store";
  if (kind == "mmap") {
    // Arena sized to hold the largest image with table/alignment headroom.
    const std::size_t mb = std::max<std::size_t>(8, (largest_bytes >> 20) + 4);
    return "mmap:" + dir + "/arena.ckpt?mb=" + std::to_string(mb);
  }
  if (kind == "log") return "log:" + dir + "/log_store?shards=8";
  std::cerr << "error: unknown backend '" << kind
            << "' (known: memory, file, mmap, log)\n";
  std::exit(2);
}

struct ScalingRow {
  std::string backend;
  int committers = 0;
  double wall_s = 0.0;        ///< best-of-reps round wall time
  double commit_MBps = 0.0;   ///< aggregate across all committers
};

/// One commit-storm cell: `committers` threads, each committing `per_thread`
/// snapshots of `bytes` against a fresh store. The mmap arena must hold the
/// whole round, so cells get their own store directory, removed afterwards.
ScalingRow committer_cell(const std::string& kind, const std::string& dir,
                          int committers, int per_thread, std::size_t bytes,
                          int reps, std::span<const std::byte> payload) {
  ScalingRow row;
  row.backend = kind;
  row.committers = committers;
  row.wall_s = std::numeric_limits<double>::infinity();

  ckpt::io::SnapshotBlob proto;
  proto.meta.kind = ckpt::CkptKind::Full;
  proto.meta.bytes = bytes;
  ckpt::io::RegionBlob region;
  region.region = 1;
  region.crc = common::crc32(payload.subspan(0, bytes));
  region.payload.assign(payload.begin(), payload.begin() + bytes);
  proto.regions.push_back(std::move(region));

  const std::string store = dir + "/cscale_" + kind;
  const std::size_t total = bytes * committers * per_thread;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(store);
    fs::create_directories(store);
    const std::size_t mb = std::max<std::size_t>(8, (total >> 20) + 8);
    auto backend = ckpt::io::make_backend(
        kind == "mmap" ? "mmap:" + store + "/arena.ckpt?mb=" +
                             std::to_string(mb)
                       : backend_spec(kind, store, total));
    const bool concurrent = backend->concurrent_committers();
    std::mutex serial;
    std::vector<std::thread> threads;
    threads.reserve(committers);
    const auto t0 = Clock::now();
    for (int t = 0; t < committers; ++t) {
      threads.emplace_back([&, t] {
        ckpt::io::SnapshotBlob blob = proto;
        for (int c = 0; c < per_thread; ++c) {
          blob.meta.id =
              static_cast<ckpt::CkptId>(t * per_thread + c + 1);
          blob.meta.when = static_cast<double>(blob.meta.id);
          if (concurrent) {
            backend->write_snapshot(blob);
          } else {
            std::lock_guard lock(serial);
            backend->write_snapshot(blob);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    row.wall_s = std::min(row.wall_s, seconds_since(t0));
    backend.reset();
    fs::remove_all(store);
  }
  row.commit_MBps =
      (static_cast<double>(total) / (1024.0 * 1024.0)) / row.wall_s;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const auto backends =
      args.get_list("backends", {"memory", "file", "mmap", "log"});
  const auto sizes_mb = args.get_double_list("sizes-mb", {2, 8, 32});
  const auto committer_counts =
      args.get_double_list("committers", {1, 2, 4, 8});
  const double commit_mb = args.get_double("commit-mb", 4.0);
  const int reps = static_cast<int>(args.get_int("reps", 4));
  const std::string dir =
      args.get_string("dir", (fs::temp_directory_path() / "abftc_ckpt_io")
                                 .string());
  const std::size_t chunk_bytes =
      static_cast<std::size_t>(args.get_int("chunk-kb", 1024)) * 1024;
  const std::string out_path = args.get_string("out", "BENCH_ckpt_io.json");
  args.warn_unknown(std::cerr);

  fs::create_directories(dir);
  std::size_t largest = 0;
  for (const double mb : sizes_mb)
    largest = std::max(largest,
                       static_cast<std::size_t>(mb * 1024.0 * 1024.0));

  // Scratch image data: 70% LIBRARY + 30% REMAINDER, non-trivial bytes so
  // neither the CRC nor compression-happy filesystems can shortcut.
  std::vector<std::byte> lib(largest * 7 / 10), rem(largest - lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i)
    lib[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  for (std::size_t i = 0; i < rem.size(); ++i)
    rem[i] = static_cast<std::byte>((i * 40503u) >> 7);

  // CRC throughput, dispatched vs portable, in the same run: 16 passes over
  // a cache-resident 1 MiB slice of the image, best of reps. A buffer that
  // spills to DRAM would measure memory bandwidth, not the CRC.
  const std::span<const std::byte> crc_buf(
      lib.data(), std::min<std::size_t>(lib.size(), 1u << 20));
  constexpr int kCrcPasses = 16;
  const auto time_crc = [&](auto crc_fn, std::uint32_t& out) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < std::max(reps, 5); ++rep) {
      const auto t0 = Clock::now();
      std::uint32_t c = 0;
      for (int pass = 0; pass < kCrcPasses; ++pass) c = crc_fn(crc_buf, c);
      best = std::min(best, seconds_since(t0));
      out = c;
    }
    return static_cast<double>(crc_buf.size()) * kCrcPasses / best * 1e-9;
  };
  std::uint32_t crc_fast = 0, crc_ref = 0;
  const double crc_gbps = time_crc(
      [](std::span<const std::byte> d, std::uint32_t seed) {
        return common::crc32(d, seed);
      },
      crc_fast);
  const double portable_gbps = time_crc(
      [](std::span<const std::byte> d, std::uint32_t seed) {
        return common::crc32_portable(d, seed);
      },
      crc_ref);
  if (crc_fast != crc_ref) {
    std::cerr << "error: dispatched crc32 differs from the portable one\n";
    return 1;
  }

  std::vector<Row> rows;
  double best_speedup = 0.0;
  for (const std::string& kind : backends) {
    auto backend = ckpt::io::make_backend(backend_spec(kind, dir, largest));
    double when = 1.0;
    for (const double mb : sizes_mb) {
      const auto bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
      Row row;
      row.backend = kind;
      row.bytes = bytes;
      row.serial_s = std::numeric_limits<double>::infinity();
      row.async_s = std::numeric_limits<double>::infinity();
      row.restore_s = std::numeric_limits<double>::infinity();

      for (const bool async : {false, true}) {
        ckpt::io::WriterOptions opts;
        opts.chunk_bytes = chunk_bytes;
        opts.async = async;
        ckpt::io::CkptWriter writer(*backend, opts);
        for (int rep = 0; rep < reps; ++rep) {
          ckpt::MemoryImage image;
          image.add_region("lib", std::span(lib.data(), bytes * 7 / 10),
                           ckpt::RegionClass::Library);
          image.add_region("rem",
                           std::span(rem.data(), bytes - bytes * 7 / 10),
                           ckpt::RegionClass::Remainder);
          auto t0 = Clock::now();
          const ckpt::CkptId id = writer.take_full(image, when);
          const double commit = seconds_since(t0);
          (async ? row.async_s : row.serial_s) =
              std::min(async ? row.async_s : row.serial_s, commit);
          when += 1.0;

          t0 = Clock::now();
          (void)writer.restore_latest(image);
          row.restore_s = std::min(row.restore_s, seconds_since(t0));
          backend->drop(id);
        }
      }
      best_speedup = std::max(best_speedup, row.serial_s / row.async_s);
      rows.push_back(row);
    }
  }

  // Commit-storm scenario: fixed snapshot size, varying committer count.
  const auto commit_bytes =
      static_cast<std::size_t>(commit_mb * 1024.0 * 1024.0);
  std::vector<std::byte> storm(commit_bytes);
  for (std::size_t i = 0; i < storm.size(); ++i)
    storm[i] = static_cast<std::byte>((i * 2246822519u) >> 11);
  std::vector<ScalingRow> scaling;
  for (const std::string& kind : backends)
    for (const double c : committer_counts)
      scaling.push_back(committer_cell(kind, dir, static_cast<int>(c), 3,
                                       commit_bytes, reps,
                                       std::span(storm)));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open '" << out_path << "' for writing\n";
    return 2;
  }
  common::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "ckpt_io");
  json.kv("chunk_bytes", chunk_bytes);
  json.kv("reps", reps);
  json.kv("hardware_threads", common::hardware_workers());
  json.kv("best_async_speedup", best_speedup);
  json.kv("crc32_pclmul", common::crc32_uses_pclmul());
  json.kv("crc32_gbps", crc_gbps);
  json.kv("crc32_portable_gbps", portable_gbps);
  json.kv("crc32_speedup", crc_gbps / portable_gbps);
  json.key("results").begin_array();
  for (const Row& r : rows) {
    const auto mbytes = static_cast<double>(r.bytes) / (1024.0 * 1024.0);
    json.begin_object();
    json.kv("backend", r.backend);
    json.kv("bytes", r.bytes);
    json.kv("serial_ms", r.serial_s * 1e3);
    json.kv("async_ms", r.async_s * 1e3);
    json.kv("async_speedup", r.serial_s / r.async_s);
    json.kv("commit_MBps", mbytes / r.async_s);
    json.kv("restore_MBps", mbytes / r.restore_s);
    json.end_object();
  }
  json.end_array();
  json.kv("commit_mb", commit_mb);
  json.key("committer_scaling").begin_array();
  for (const ScalingRow& r : scaling) {
    json.begin_object();
    json.kv("backend", r.backend);
    json.kv("committers", r.committers);
    json.kv("wall_s", r.wall_s);
    json.kv("commit_MBps", r.commit_MBps);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  for (const Row& r : rows)
    std::cout << r.backend << " " << r.bytes / (1024 * 1024) << "MiB"
              << " serial=" << r.serial_s * 1e3 << "ms"
              << " async=" << r.async_s * 1e3 << "ms"
              << " speedup=" << r.serial_s / r.async_s
              << " restore=" << (static_cast<double>(r.bytes) / (1024.0 * 1024.0)) / r.restore_s
              << "MB/s\n";
  for (const ScalingRow& r : scaling)
    std::cout << r.backend << " committers=" << r.committers
              << " wall=" << r.wall_s * 1e3 << "ms"
              << " aggregate=" << r.commit_MBps << "MB/s\n";
  std::cout << "crc32 " << crc_gbps << " GB/s ("
            << (common::crc32_uses_pclmul() ? "pclmul" : "portable")
            << "), portable " << portable_gbps << " GB/s\n";
  std::cout << "best async-over-serial speedup " << best_speedup
            << "x; wrote " << out_path << "\n";
  return 0;
}
