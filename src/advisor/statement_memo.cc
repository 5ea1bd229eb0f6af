#include "advisor/statement_memo.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

namespace {

constexpr size_t kInitialBuckets = 8;

// All-double structs: their bytes are exactly their fields' bits.
static_assert(sizeof(simdb::PgParams) == 8 * sizeof(double));
static_assert(sizeof(simdb::Db2Params) == 6 * sizeof(double));

}  // namespace

StatementMemo::StatementMemo() = default;
StatementMemo::~StatementMemo() = default;

std::vector<uint32_t> StatementMemo::Intern(const simdb::DbEngine* engine,
                                            const simdb::Workload& workload) {
  std::lock_guard lock(mu_);
  std::vector<uint32_t> ids;
  ids.reserve(workload.statements.size());
  for (const simdb::WorkloadStatement& stmt : workload.statements) {
    size_t id = 0;
    while (id < statements_.size() &&
           !(statements_[id].refs > 0 &&
             statements_[id].engine == engine->id() &&
             statements_[id].query == stmt.query)) {
      ++id;
    }
    if (id == statements_.size()) {
      if (free_.empty()) {
        VDBA_CHECK_LT(id, size_t{kNoStatement});
        statements_.emplace_back();
      } else {
        id = free_.back();
        free_.pop_back();
      }
      statements_[id].engine = engine->id();
      statements_[id].query = stmt.query;
    }
    ++statements_[id].refs;
    ids.push_back(static_cast<uint32_t>(id));
  }
  return ids;
}

void StatementMemo::Release(const std::vector<uint32_t>& ids) {
  std::lock_guard lock(mu_);
  for (uint32_t id : ids) {
    Statement& s = statements_[id];
    VDBA_CHECK_GT(s.refs, 0);
    if (--s.refs == 0) {
      Erase(id);
      s = Statement{};
      free_.push_back(id);
    }
  }
}

void StatementMemo::Erase(uint32_t stmt) {
  for (Bucket& bucket : buckets_) {
    // Close the gaps, keeping the other entries newest first.
    size_t kept = 0;
    for (size_t w = 0; w < kWays && bucket.heads[w] != kEmpty; ++w) {
      if (bucket.heads[w] >> 32 == stmt) {
        --entries_;
      } else {
        bucket.heads[kept] = bucket.heads[w];
        bucket.entries[kept++] = bucket.entries[w];
      }
    }
    for (; kept < kWays; ++kept) bucket.heads[kept] = kEmpty;
  }
}

StatementMemo::Key StatementMemo::MakeKey(uint32_t stmt,
                                          const simdb::EngineParams& params) {
  Key key;
  key.stmt = stmt;
  std::visit(
      [&](const auto& p) { std::memcpy(key.params.data(), &p, sizeof(p)); },
      params);
  uint64_t h = 0x9e3779b97f4a7c15ull * (uint64_t{stmt} + 1);
  for (uint64_t w : key.params) {
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  key.tag = static_cast<uint32_t>(h ^ (h >> 32));
  return key;
}

bool StatementMemo::Find(const Key& key, Value* value) const {
  if (buckets_.empty()) return false;
  const uint64_t head = key.head();
  const Bucket& bucket = buckets_[BucketOf(head)];
  for (size_t w = 0; w < kWays && bucket.heads[w] != kEmpty; ++w) {
    if (bucket.heads[w] == head && bucket.entries[w].params == key.params) {
      *value = bucket.entries[w].value;
      return true;
    }
  }
  return false;
}

bool StatementMemo::Place(uint64_t head, const Entry& entry) {
  Bucket& bucket = buckets_[BucketOf(head)];
  if (bucket.heads.back() != kEmpty) return false;
  std::copy_backward(bucket.heads.begin(), bucket.heads.end() - 1,
                     bucket.heads.end());
  std::copy_backward(bucket.entries.begin(), bucket.entries.end() - 1,
                     bucket.entries.end());
  bucket.heads.front() = head;
  bucket.entries.front() = entry;
  return true;
}

void StatementMemo::Grow() {
  std::vector<Bucket> old = std::exchange(
      buckets_, std::vector<Bucket>(buckets_.empty() ? kInitialBuckets
                                                     : buckets_.size() * 2));
  // Oldest first, so each bucket keeps its newest-first order. Doubling
  // splits every bucket in two, so nothing overflows.
  for (const Bucket& bucket : old) {
    for (size_t w = kWays; w-- > 0;) {
      if (bucket.heads[w] != kEmpty) Place(bucket.heads[w], bucket.entries[w]);
    }
  }
}

StatementMemo::Value StatementMemo::Insert(const Key& key, double native_cost,
                                           std::string signature) {
  Value existing;
  if (Find(key, &existing)) return existing;
  Statement& s = statements_[key.stmt];
  VDBA_CHECK_GT(s.refs, 0);
  const std::string* interned = nullptr;
  for (const auto& sig : s.signatures) {
    if (*sig == signature) {
      interned = sig.get();
      break;
    }
  }
  if (interned == nullptr) {
    s.signatures.push_back(std::make_unique<std::string>(std::move(signature)));
    interned = s.signatures.back().get();
  }
  const size_t slots = buckets_.size() * kWays;
  if (slots < kMaxSlots && (entries_ + 1) * 4 > slots * 3) Grow();
  const uint64_t head = key.head();
  const Entry entry{key.params, Value{native_cost, interned}};
  if (!Place(head, entry)) {
    // The bucket's oldest entry makes room.
    buckets_[BucketOf(head)].heads.back() = kEmpty;
    --entries_;
    Place(head, entry);
  }
  ++entries_;
  return entry.value;
}

}  // namespace vdba::advisor
