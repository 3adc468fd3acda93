#include "ml/qlearn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/stats.h"

namespace oal::ml {

TabularQ::TabularQ(std::size_t num_actions, QLearnConfig cfg)
    : num_actions_(num_actions), cfg_(cfg), epsilon_(cfg.epsilon_init), rng_(cfg.seed),
      default_row_(num_actions, cfg.optimistic_init) {
  if (num_actions == 0) throw std::invalid_argument("TabularQ: need at least one action");
}

const std::vector<double>& TabularQ::row(std::uint64_t state) const {
  const auto it = table_.find(state);
  return it == table_.end() ? default_row_ : it->second;
}

std::vector<double>& TabularQ::row_mut(std::uint64_t state) {
  auto [it, inserted] = table_.try_emplace(state, default_row_);
  return it->second;
}

std::size_t TabularQ::select_action(std::uint64_t state) {
  std::size_t a;
  if (rng_.bernoulli(epsilon_)) {
    a = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(num_actions_) - 1));
  } else {
    a = greedy_action(state);
  }
  epsilon_ = std::max(cfg_.epsilon_min, epsilon_ * cfg_.epsilon_decay);
  return a;
}

std::size_t TabularQ::greedy_action(std::uint64_t state) const {
  const auto& q = row(state);
  return static_cast<std::size_t>(std::distance(q.begin(), std::max_element(q.begin(), q.end())));
}

void TabularQ::update(std::uint64_t state, std::size_t action, double reward,
                      std::uint64_t next_state) {
  if (action >= num_actions_) throw std::invalid_argument("TabularQ::update: bad action");
  const auto& next_q = row(next_state);
  const double best_next = *std::max_element(next_q.begin(), next_q.end());
  auto& q = row_mut(state);
  q[action] += cfg_.alpha * (reward + cfg_.gamma * best_next - q[action]);
}

namespace {

double u64_as_double(std::uint64_t v) {
  double d = 0.0;
  std::memcpy(&d, &v, sizeof(d));
  return d;
}

std::uint64_t double_as_u64(double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

}  // namespace

void TabularQ::export_state(std::vector<double>& out) const {
  out.push_back(epsilon_);
  const common::Rng::State rs = rng_.state();
  for (std::uint64_t w : rs.s) out.push_back(u64_as_double(w));
  out.push_back(rs.has_cached_normal ? 1.0 : 0.0);
  out.push_back(rs.cached_normal);
  out.push_back(static_cast<double>(num_actions_));
  out.push_back(static_cast<double>(table_.size()));
  std::vector<std::uint64_t> states;
  states.reserve(table_.size());
  // Hash order is fine here: this pass only harvests the keys, and the sort
  // below fixes the export order before anything is written.
  // oal-lint: allow(unordered-iter)
  for (const auto& [state, q] : table_) states.push_back(state);
  std::sort(states.begin(), states.end());
  for (std::uint64_t state : states) {
    out.push_back(u64_as_double(state));
    const auto& q = table_.at(state);
    out.insert(out.end(), q.begin(), q.end());
  }
}

bool TabularQ::import_state(const std::vector<double>& in, std::size_t& pos) {
  // Header: epsilon, four rng words, cached-normal flag and value, action
  // count, row count.
  constexpr std::size_t kHeader = 9;
  if (pos > in.size() || in.size() - pos < kHeader) return false;
  std::size_t p = pos;
  const double epsilon = in[p++];
  if (!std::isfinite(epsilon)) return false;
  common::Rng::State rs;
  for (std::uint64_t& w : rs.s) w = double_as_u64(in[p++]);
  rs.has_cached_normal = in[p++] != 0.0;
  rs.cached_normal = in[p++];
  if (in[p++] != static_cast<double>(num_actions_)) return false;
  // Each row is a state key (raw bits, any value) and num_actions_ Q-values;
  // the row count must fit in what remains of the blob.
  const std::size_t row_len = 1 + num_actions_;
  const double rows_d = in[p++];
  if (!common::is_count(rows_d, static_cast<double>((in.size() - p) / row_len))) return false;
  const auto rows = static_cast<std::size_t>(rows_d);
  std::unordered_map<std::uint64_t, std::vector<double>> table;
  table.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t state = double_as_u64(in[p++]);
    const auto first = in.begin() + static_cast<std::ptrdiff_t>(p);
    const auto last = first + static_cast<std::ptrdiff_t>(num_actions_);
    if (!std::all_of(first, last, [](double q) { return std::isfinite(q); })) return false;
    table.emplace(state, std::vector<double>(first, last));
    p += num_actions_;
  }
  epsilon_ = epsilon;
  rng_.set_state(rs);
  table_ = std::move(table);
  pos = p;
  return true;
}

std::size_t TabularQ::storage_bytes() const {
  // Key + row of doubles per visited state.
  return table_.size() * (sizeof(std::uint64_t) + num_actions_ * sizeof(double));
}

std::uint64_t hash_state(const std::vector<int>& components) {
  return hash_state(components.data(), components.size());
}

std::uint64_t hash_state(const int* components, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (std::size_t i = 0; i < n; ++i) {
    auto v = static_cast<std::uint64_t>(static_cast<std::int64_t>(components[i]));
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace oal::ml
