// Support code for the service benchmark (service_bench.cpp): allocation
// counting, nearest-rank quantiles, and the seeded request streams of the
// four workloads. Everything here is deterministic in the seed, so the
// self-test can check that one seed always yields one request stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/multicast_assignment.hpp"

namespace sb {

// ---- fixed shape of every workload ---------------------------------------

inline constexpr std::size_t kN = 1024;           ///< network width
inline constexpr std::size_t kClients = 2;        ///< closed-loop callers
inline constexpr std::size_t kShards = 2;         ///< cluster replicas
inline constexpr std::size_t kPoolSize = 128;     ///< hot_replay assignments
/// faulted_replica: every kFaultedRankStride-th Zipf rank (about a fifth
/// of the traffic) maps to an assignment placed on the faulted shard 0.
inline constexpr std::size_t kFaultedRankStride = 4;
inline constexpr std::size_t kFaultedItems = kPoolSize / kFaultedRankStride;
inline constexpr double kZipfExponent = 1.0;
/// Requests per client between re-deals of the Zipf popularity ranks.
inline constexpr std::size_t kEpochRequests = 256;
inline constexpr std::size_t kColdWarmup = 1024;  ///< fills every cache
inline constexpr std::size_t kGroups = 64;
inline constexpr std::size_t kGroupSources = 8;
inline constexpr std::size_t kGroupMembers = 768;
/// A group's member count stays within kGroupMembers +- this.
inline constexpr std::size_t kGroupSwing = 64;

enum class Workload { HotReplay, ColdCompile, GroupChurn, FaultedReplica };

std::string_view workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Independent sub-stream seed for (run seed, purpose, index).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index = 0);

// ---- allocation counting ---------------------------------------------------
//
// service_bench replaces the global operator new. Each thread counts into
// its own padded slot, so counting costs no shared cache line.

/// Heap allocations made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;
/// Heap allocations made so far by every thread of the process.
std::uint64_t total_allocs() noexcept;

// ---- statistics -------------------------------------------------------------

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it (rank ceil(q * N), 1-based). Failed requests are
/// recorded as +infinity, so they count as missing every latency limit.
/// Sorts `samples` in place; returns NaN when empty.
double nearest_rank(std::vector<double>& samples, double q);

double median(std::vector<double> values);

// ---- request streams --------------------------------------------------------

/// Zipf(s) over ranks 0..size-1 by inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t size, double exponent);
  std::size_t draw(brsmn::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The 128-assignment pool of hot_replay. With `split` (faulted_replica)
/// the first kFaultedItems are assignments the cluster places on shard 0
/// and the rest ones it places on shard 1.
std::vector<brsmn::MulticastAssignment> make_pool(std::uint64_t seed,
                                                  bool split = false);

/// Client `client`'s stream of pool indices: Zipf(1.0) over ranks, with
/// the rank -> pool-index deal redrawn every kEpochRequests requests so a
/// run averages over many popularity layouts. With `split`, ranks
/// kFaultedRankStride-1, 2*kFaultedRankStride-1, ... are dealt the
/// shard-0 items of a split pool and the other ranks the rest, so the
/// faulted shard's share of the traffic is the same on every seed.
class HotStream {
 public:
  HotStream(std::uint64_t seed, std::size_t client, bool split = false);
  std::size_t next();

 private:
  std::uint64_t seed_;
  bool split_;
  brsmn::Rng rng_;
  ZipfSampler zipf_;
  std::vector<std::size_t> deal_;
  std::size_t issued_ = 0;
};

/// Client `client`'s stream of fresh random_multicast(1024, 1.0)
/// assignments (cold_compile), or the set-up stream when client ==
/// kWarmupClient.
class ColdStream {
 public:
  static constexpr std::size_t kWarmupClient = 1000;
  ColdStream(std::uint64_t seed, std::size_t client);
  brsmn::MulticastAssignment next();

 private:
  brsmn::Rng rng_;
};

/// One group's membership: 8 sources, each output owned by at most one.
struct GroupState {
  std::array<std::size_t, kGroupSources> sources{};
  /// owner[output] = source input, or kNone.
  std::vector<std::size_t> owner;
  std::vector<std::size_t> members;  ///< claimed outputs, unordered
  std::vector<std::size_t> free;     ///< unclaimed outputs, unordered
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  brsmn::MulticastAssignment assignment() const;
  bool is_source(std::size_t input) const;
};

/// The 64 groups as set-up creates them.
std::vector<GroupState> make_groups(std::uint64_t seed);

/// One group_churn mutation.
struct ChurnStep {
  std::uint64_t group = 0;
  bool join = false;
  std::size_t source = 0;
  std::size_t output = 0;
};

/// Client `client`'s churn over the groups it owns (group % kClients ==
/// client): each round visits them in a fresh seeded order, and each
/// visit joins a free output to one of the group's sources or removes a
/// member. next() applies the step to the client's shadow copy of the
/// group, which is the reference every delivery is checked against.
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, std::size_t client,
              const std::vector<GroupState>& groups);
  ChurnStep next();
  const GroupState& group(std::uint64_t id) const { return groups_[id]; }
  const std::vector<std::uint64_t>& owned() const { return owned_; }

 private:
  brsmn::Rng rng_;
  std::vector<GroupState> groups_;  ///< indexed by group id; owned ones live
  std::vector<std::uint64_t> owned_;
  std::vector<std::uint64_t> order_;
  std::size_t cursor_ = 0;
};

/// FNV-1a step, for stream digests.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v);

}  // namespace sb
