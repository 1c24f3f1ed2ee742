#pragma once
// support::ShardedCache — the one in-memory memo table under every cache
// layer (score, build artifact, TU compile, link), under the defect
// mutators' file-facts memo (xlate::file_facts) and under the generation
// layer's per-cell memo (agents::cell_entry). Keys spread over 16
// mutex-guarded shards so the harness's parallel samples do not queue on
// one lock; each shard holds at most capacity/16 entries (minimum one) and
// evicts its least-recently-used entry on overflow.
//
// Misses are single-flight: the first thread to miss on a key owns the
// key's flight and computes; every other thread that misses on the same key
// meanwhile waits for the flight to end and then reads the landed entry as
// a hit. A layer's misses() therefore counts the distinct keys it computed,
// whatever the thread count or schedule. Finished entries hold V directly
// and the in-flight futures live beside them, consulted only on a miss, so
// the hit path stays one shard lock, a find, and a value copy.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "support/json.hpp"

namespace pareval::support {

template <class K, class V, class Hash = std::hash<K>>
class ShardedCache {
  struct Shard;

 public:
  static constexpr std::size_t kShards = 16;

  explicit ShardedCache(std::size_t capacity)
      : capacity_(std::max(capacity, kShards)) {}
  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Ownership of one key's flight. While it lives, every other claim on
  /// the key waits; destroying it (normally or while an exception unwinds)
  /// ends the flight and wakes the waiters.
  class Flight {
   public:
    Flight(Flight&& other) noexcept
        : shard_(std::exchange(other.shard_, nullptr)),
          key_(std::move(other.key_)),
          done_(std::move(other.done_)) {}
    Flight& operator=(Flight&&) = delete;
    Flight(const Flight&) = delete;
    Flight& operator=(const Flight&) = delete;
    ~Flight() {
      if (shard_ == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(shard_->mu);
        shard_->flights.erase(key_);
      }
      done_.set_value();
    }

   private:
    friend class ShardedCache;
    Flight(Shard& shard, K key, std::promise<void> done)
        : shard_(&shard), key_(std::move(key)), done_(std::move(done)) {}

    Shard* shard_;
    K key_;
    std::promise<void> done_;
  };

  /// The value for `key`, computing it with `fn()` on a miss. Concurrent
  /// misses on one key run `fn` once: the others wait on the flight's
  /// shared future and count as hits. If `fn` throws, the flight ends with
  /// nothing inserted and the next call computes again.
  ///
  /// Waiting blocks the thread; it does not help run pool tasks. That is
  /// deadlock-free only because no compute submits or helps run
  /// ThreadPool work while it owns a flight: score -> build -> TU -> link
  /// computes, the file-facts lex and the cell -> translation computes
  /// never touch the pool, and each layer's compute only claims flights
  /// of the layers below it.
  template <class Fn>
  V get_or_compute(const K& key, Fn&& fn) {
    Shard& shard = shard_for(key);
    for (;;) {
      std::unique_lock<std::mutex> lock(shard.mu);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used = tick();
        return it->second.value;
      }
      std::shared_future<void> busy;
      const std::optional<Flight> flight = claim_locked(shard, key, &busy);
      lock.unlock();
      if (!flight) {
        busy.wait();
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      V value = fn();
      insert(key, value);
      return value;
    }
  }

  /// Claim `key`'s flight, for layers whose hit test runs outside the
  /// shard lock (the TU layer validates dependency manifests, the link
  /// layer decodes payloads). Returns the owning Flight when no flight is
  /// active; otherwise blocks until the active flight ends and returns
  /// nullopt, and the caller repeats its lookup before claiming again.
  /// An owner must repeat its lookup too: the entry may have landed
  /// between its first lookup and the claim.
  std::optional<Flight> claim(const K& key) {
    Shard& shard = shard_for(key);
    std::shared_future<void> busy;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (auto flight = claim_locked(shard, key, &busy)) return flight;
    }
    busy.wait();
    return std::nullopt;
  }

  /// Call `fn(V*)` under the shard lock with `key`'s entry, or nullptr
  /// when absent, and return its result. A present entry counts as used.
  template <class Fn>
  decltype(auto) visit(const K& key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return fn(static_cast<V*>(nullptr));
    it->second.last_used = tick();
    return fn(&it->second.value);
  }

  /// Call `fn(V&)` under the shard lock on `key`'s entry, inserting a
  /// default-constructed V first when absent; then apply the bound.
  template <class Fn>
  void upsert(const K& key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    Node& node = shard.entries[key];
    node.last_used = tick();
    fn(node.value);
    evict_locked(shard, shard_capacity());
  }

  /// Insert `value` unless `key` is present (an existing entry wins:
  /// values are pure, so it is the same value). True when inserted.
  bool insert(const K& key, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] =
        shard.entries.try_emplace(key, Node{std::move(value), 0});
    if (!inserted) return false;
    it->second.last_used = tick();
    evict_locked(shard, shard_capacity());
    return true;
  }

  /// Call `fn(const K&, V&)` for every entry, one shard lock at a time,
  /// in no particular order. Does not count as use.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto& [key, node] : shard.entries) fn(key, node.value);
    }
  }

  std::size_t hits() const noexcept { return hits_.load(); }
  std::size_t misses() const noexcept { return misses_.load(); }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.entries.size();
    }
    return n;
  }

  /// Drop every entry and zero the counters. Flights in progress are
  /// unaffected; their entries land after the clear.
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.entries.clear();
    }
    hits_.store(0);
    misses_.store(0);
  }

  /// Bound the entry count (minimum one entry per shard), evicting
  /// least-recently-used entries at once when the cache is over it.
  void set_capacity(std::size_t max_entries) {
    capacity_.store(std::max(max_entries, kShards),
                    std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      evict_locked(shard, shard_capacity());
    }
  }

  /// Counters as JSON with a pinned key order: hits, misses, entries.
  Json stats() const {
    Json j = Json::object();
    j.set("hits", static_cast<long long>(hits()));
    j.set("misses", static_cast<long long>(misses()));
    j.set("entries", static_cast<long long>(size()));
    return j;
  }

 private:
  struct Node {
    V value;
    std::uint64_t last_used = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<K, Node, Hash> entries;
    std::unordered_map<K, std::shared_future<void>, Hash> flights;
  };

  Shard& shard_for(const K& key) { return shards_[Hash{}(key) % kShards]; }

  std::uint64_t tick() noexcept {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::size_t shard_capacity() const noexcept {
    return std::max<std::size_t>(
        1, capacity_.load(std::memory_order_relaxed) / kShards);
  }

  /// Caller holds shard.mu. Registers a flight for `key` and returns it,
  /// or stores the active flight's future in `busy` and returns nullopt.
  static std::optional<Flight> claim_locked(Shard& shard, const K& key,
                                            std::shared_future<void>* busy) {
    const auto it = shard.flights.find(key);
    if (it != shard.flights.end()) {
      *busy = it->second;
      return std::nullopt;
    }
    std::promise<void> done;
    shard.flights.emplace(key, done.get_future().share());
    return Flight(shard, key, std::move(done));
  }

  /// Caller holds shard.mu. The linear victim scan is fine: shard bounds
  /// are small and eviction is rare.
  static void evict_locked(Shard& shard, std::size_t bound) {
    while (shard.entries.size() > bound) {
      auto victim = shard.entries.begin();
      for (auto it = std::next(victim); it != shard.entries.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      shard.entries.erase(victim);
    }
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> capacity_;
};

}  // namespace pareval::support
