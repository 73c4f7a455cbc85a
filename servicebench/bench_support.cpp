#include "bench_support.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/placement.hpp"
#include "core/route_plan.hpp"

// ---- counting global operator new -------------------------------------------

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> count{0};
};

constexpr std::size_t kAllocSlots = 64;
AllocSlot g_slots[kAllocSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local AllocSlot* t_slot = nullptr;

AllocSlot& my_slot() noexcept {
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    // Threads past the last slot share it; it is then the only slot
    // written by more than one thread, hence the atomic add below.
    t_slot = &g_slots[std::min(i, kAllocSlots - 1)];
  }
  return *t_slot;
}

void count_alloc() noexcept {
  my_slot().count.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  count_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc demands it
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, al, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sb {

std::uint64_t thread_allocs() noexcept {
  return my_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t total_allocs() noexcept {
  std::uint64_t sum = 0;
  for (const AllocSlot& s : g_slots) {
    sum += s.count.load(std::memory_order_relaxed);
  }
  return sum;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::HotReplay: return "hot_replay";
    case Workload::ColdCompile: return "cold_compile";
    case Workload::GroupChurn: return "group_churn";
    case Workload::FaultedReplica: return "faulted_replica";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::HotReplay, Workload::ColdCompile,
                     Workload::GroupChurn, Workload::FaultedReplica}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  return brsmn::mix64(brsmn::mix64(seed ^ (purpose * 0x9E3779B97F4A7C15ull)) +
                      index);
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

double nearest_rank(std::vector<double>& samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                : 0.5 * (values[m - 1] + values[m]);
}

// ---- streams ------------------------------------------------------------------

namespace {
// stream_seed purposes
constexpr std::uint64_t kPurposePool = 1;
constexpr std::uint64_t kPurposeHot = 2;
constexpr std::uint64_t kPurposeDeal = 3;
constexpr std::uint64_t kPurposeCold = 4;
constexpr std::uint64_t kPurposeGroup = 5;
constexpr std::uint64_t kPurposeChurn = 6;

/// A uniform double in [0, 1) from the generator's next 53 bits.
double unit_draw(brsmn::Rng& rng) {
  return static_cast<double>(rng.engine()() >> 11) * 0x1.0p-53;
}
}  // namespace

ZipfSampler::ZipfSampler(std::size_t size, double exponent) : cdf_(size) {
  double total = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::draw(brsmn::Rng& rng) const {
  const double u = unit_draw(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<brsmn::MulticastAssignment> make_pool(std::uint64_t seed,
                                                  bool split) {
  brsmn::Rng rng(stream_seed(seed, kPurposePool));
  if (!split) {
    std::vector<brsmn::MulticastAssignment> pool;
    pool.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(brsmn::random_multicast(kN, 1.0, rng));
    }
    return pool;
  }
  std::vector<brsmn::MulticastAssignment> on0, on1;
  while (on0.size() < kFaultedItems || on1.size() < kPoolSize - kFaultedItems) {
    brsmn::MulticastAssignment a = brsmn::random_multicast(kN, 1.0, rng);
    const std::size_t shard =
        brsmn::primary_shard(brsmn::assignment_fingerprint(a), kShards);
    if (shard == 0 && on0.size() < kFaultedItems) on0.push_back(std::move(a));
    if (shard == 1 && on1.size() < kPoolSize - kFaultedItems) {
      on1.push_back(std::move(a));
    }
  }
  for (brsmn::MulticastAssignment& a : on1) on0.push_back(std::move(a));
  return on0;
}

HotStream::HotStream(std::uint64_t seed, std::size_t client, bool split)
    : seed_(seed),
      split_(split),
      rng_(stream_seed(seed, kPurposeHot, client)),
      zipf_(kPoolSize, kZipfExponent) {}

std::size_t HotStream::next() {
  if (issued_ % kEpochRequests == 0) {
    // Both clients see the same deal in the same epoch.
    brsmn::Rng deal_rng(
        stream_seed(seed_, kPurposeDeal, issued_ / kEpochRequests));
    deal_ = deal_rng.permutation(kPoolSize);
    if (split_) {
      // Faulted ranks take the permuted shard-0 items in order, the
      // other ranks the permuted shard-1 items.
      std::vector<std::size_t> faulted, healthy;
      for (std::size_t i : deal_) (i < kFaultedItems ? faulted : healthy).push_back(i);
      std::size_t f = 0, h = 0;
      for (std::size_t r = 0; r < kPoolSize; ++r) {
        deal_[r] = r % kFaultedRankStride == kFaultedRankStride - 1
                       ? faulted[f++]
                       : healthy[h++];
      }
    }
  }
  ++issued_;
  return deal_[zipf_.draw(rng_)];
}

ColdStream::ColdStream(std::uint64_t seed, std::size_t client)
    : rng_(stream_seed(seed, kPurposeCold, client)) {}

brsmn::MulticastAssignment ColdStream::next() {
  return brsmn::random_multicast(kN, 1.0, rng_);
}

brsmn::MulticastAssignment GroupState::assignment() const {
  brsmn::MulticastAssignment a(kN);
  for (std::size_t out : members) a.connect(owner[out], out);
  return a;
}

bool GroupState::is_source(std::size_t input) const {
  return std::find(sources.begin(), sources.end(), input) != sources.end();
}

std::vector<GroupState> make_groups(std::uint64_t seed) {
  std::vector<GroupState> groups(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    brsmn::Rng rng(stream_seed(seed, kPurposeGroup, g));
    GroupState& s = groups[g];
    const std::vector<std::size_t> src = rng.subset(kN, kGroupSources);
    std::copy(src.begin(), src.end(), s.sources.begin());
    s.owner.assign(kN, GroupState::kNone);
    // A random permutation of the outputs: the first kGroupMembers join,
    // the rest start free.
    const std::vector<std::size_t> outs = rng.permutation(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      if (i < kGroupMembers) {
        s.owner[outs[i]] = s.sources[rng.uniform(0, kGroupSources - 1)];
        s.members.push_back(outs[i]);
      } else {
        s.free.push_back(outs[i]);
      }
    }
  }
  return groups;
}

ChurnStream::ChurnStream(std::uint64_t seed, std::size_t client,
                         const std::vector<GroupState>& groups)
    : rng_(stream_seed(seed, kPurposeChurn, client)), groups_(groups) {
  for (std::uint64_t g = client; g < groups_.size(); g += kClients) {
    owned_.push_back(g);
  }
}

ChurnStep ChurnStream::next() {
  if (cursor_ == order_.size()) {
    order_.clear();
    for (std::size_t i : rng_.permutation(owned_.size())) {
      order_.push_back(owned_[i]);
    }
    cursor_ = 0;
  }
  ChurnStep step;
  step.group = order_[cursor_++];
  GroupState& s = groups_[step.group];
  const std::size_t size = s.members.size();
  if (size >= kGroupMembers + kGroupSwing) {
    step.join = false;
  } else if (size <= kGroupMembers - kGroupSwing) {
    step.join = true;
  } else {
    step.join = rng_.chance(0.5);
  }
  if (step.join) {
    const std::size_t i = rng_.uniform(0, s.free.size() - 1);
    step.output = s.free[i];
    step.source = s.sources[rng_.uniform(0, kGroupSources - 1)];
    s.free[i] = s.free.back();
    s.free.pop_back();
    s.members.push_back(step.output);
    s.owner[step.output] = step.source;
  } else {
    const std::size_t i = rng_.uniform(0, s.members.size() - 1);
    step.output = s.members[i];
    step.source = s.owner[step.output];
    s.members[i] = s.members.back();
    s.members.pop_back();
    s.free.push_back(step.output);
    s.owner[step.output] = GroupState::kNone;
  }
  return step;
}

}  // namespace sb
