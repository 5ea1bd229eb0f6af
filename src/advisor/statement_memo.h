// Exact what-if memo: one optimizer result per distinct (engine,
// statement, parameter vector) within one WhatIfCostEstimator.
//
// The estimator's allocation cache quantizes shares, so one of its hits
// may return a bucket-mate's value. This memo sits below it and is exact:
// WhatIfOptimize and WhatIfOptimizeGrid are pure functions of (engine,
// query, params), and the key holds the engine, an interned statement and
// every bit of the parameter vector. A hit therefore returns the very
// native cost and plan signature the optimizer would produce, and no entry
// ever needs invalidation. Tenants sharing statements, cold solves that
// start every tenant at the same shares, and re-pricing after a drift all
// hit it.
//
// Statements are interned by DbEngine::id(), not by address, so an engine
// built where a destroyed one lived never matches the old one's
// statements. A statement no tenant holds any more is retired: its entries
// are erased and its id goes on a free list, so the statement table is
// bounded by what the estimator's tenants hold at once.
#ifndef VDBA_ADVISOR_STATEMENT_MEMO_H_
#define VDBA_ADVISOR_STATEMENT_MEMO_H_

#include <array>
#include <compare>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simdb/cost_params.h"
#include "simdb/engine.h"
#include "simdb/workload.h"

namespace vdba::advisor {

/// Statement-level memo of what-if results. Thread-safe: every method
/// that reads or writes shared state takes the memo's mutex.
class StatementMemo {
 public:
  /// Slots at most (88 bytes each: 176 KiB). The table starts empty,
  /// allocates on its first insert and doubles whenever it is 3/4 full,
  /// up to this size. A key whose bucket is full evicts the bucket's
  /// oldest entry.
  static constexpr size_t kMaxSlots = size_t{1} << 11;
  /// Statement ids stay below this; a default Key holds it.
  static constexpr uint32_t kNoStatement = UINT32_MAX;

  /// A statement id (engine and query) plus the exact bits of a
  /// parameter vector. The flavor is implied by the engine. `tag` is a
  /// hash of the other two, so unequal keys mostly differ in their first
  /// eight bytes.
  struct Key {
    uint32_t stmt = kNoStatement;
    uint32_t tag = 0;
    std::array<uint64_t, 8> params{};
    auto operator<=>(const Key&) const = default;
    /// Statement and tag in one word: equal keys have equal heads.
    uint64_t head() const { return uint64_t{stmt} << 32 | tag; }
  };
  /// One memoized optimizer result. `signature` points at the statement's
  /// interned copy, which lives as long as any tenant holds the statement.
  struct Value {
    double native_cost = 0.0;
    const std::string* signature = nullptr;
  };

  StatementMemo();
  ~StatementMemo();
  StatementMemo(const StatementMemo&) = delete;
  StatementMemo& operator=(const StatementMemo&) = delete;

  /// Interns each statement of `workload` on `engine` (equal QuerySpecs on
  /// one engine share an id), takes one reference per statement and
  /// returns the ids, index-aligned with `workload.statements`.
  std::vector<uint32_t> Intern(const simdb::DbEngine* engine,
                               const simdb::Workload& workload);
  /// Drops one reference per id. An id nobody holds is retired: its
  /// entries and signatures are erased and the id may be handed out again
  /// for another statement.
  void Release(const std::vector<uint32_t>& ids);

  static Key MakeKey(uint32_t stmt, const simdb::EngineParams& params);

  /// The memo under its lock: every Find / Insert goes through one.
  class Locked {
   public:
    explicit Locked(StatementMemo* memo) : memo_(memo), lock_(memo->mu_) {}
    /// True and `*value` filled when `key` is present.
    bool Find(const Key& key, Value* value) const {
      return memo_->Find(key, value);
    }
    /// Records an optimizer result and returns the stored value (the
    /// existing one if another caller recorded `key` first).
    Value Insert(const Key& key, double native_cost, std::string signature) {
      return memo_->Insert(key, native_cost, std::move(signature));
    }

   private:
    StatementMemo* memo_;
    std::unique_lock<std::mutex> lock_;
  };
  Locked Lock() { return Locked(this); }

 private:
  struct Entry {
    std::array<uint64_t, 8> params;
    Value value;
  };
  struct Statement {
    uint64_t engine = 0;  ///< DbEngine::id()
    simdb::QuerySpec query;
    int refs = 0;  ///< 0: retired, the id is on free_
    /// Distinct plan signatures seen for this statement; stable addresses.
    std::vector<std::unique_ptr<std::string>> signatures;
  };
  /// The slots one key may occupy, newest first; an empty head ends the
  /// used prefix. Heads are Key::head(), so a lookup reads one cache line
  /// of heads and only the entries whose head matches.
  static constexpr size_t kWays = 8;
  static constexpr uint64_t kEmpty = UINT64_MAX;
  struct Bucket {
    std::array<uint64_t, kWays> heads;
    std::array<Entry, kWays> entries{};
    Bucket() { heads.fill(kEmpty); }
  };

  bool Find(const Key& key, Value* value) const;
  Value Insert(const Key& key, double native_cost, std::string signature);
  size_t BucketOf(uint64_t head) const {
    return head & (buckets_.size() - 1);
  }
  /// Places an entry first in its bucket; false when the bucket is full.
  bool Place(uint64_t head, const Entry& entry);
  void Grow();
  /// Erases every entry of statement `stmt`.
  void Erase(uint32_t stmt);

  std::mutex mu_;
  std::vector<Statement> statements_;  ///< index = statement id
  std::vector<uint32_t> free_;         ///< retired ids
  std::vector<Bucket> buckets_;        ///< a power of two of them
  size_t entries_ = 0;
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_STATEMENT_MEMO_H_
