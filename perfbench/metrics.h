// Arithmetic of the benchmark's reported numbers: medians, fastest
// repetitions, the tail rule, span self time, top-k answer checks and
// failure counting. Kept free of timing and I/O so metrics_test.cc can pin
// every rule on hand-made inputs.

#ifndef EGOBW_PERFBENCH_METRICS_H_
#define EGOBW_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Least of `v`, repeated measurements of identical work; 0 when empty.
/// A CPU of a shared host runs 30-60% slower while its host core is busy
/// with other work, so a median reads the host's state during the run;
/// the fastest repetition reads the program.
inline double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Fastest time of each piece of work across rounds that repeat the same
/// pieces: `rounds[r][j]` is piece j's time in round r. The result has one
/// entry per piece (the shortest round's length); empty without rounds.
inline std::vector<double> FastestPerPiece(
    const std::vector<std::vector<double>>& rounds) {
  std::vector<double> best;
  if (rounds.empty()) return best;
  size_t pieces = rounds[0].size();
  for (const auto& r : rounds) pieces = std::min(pieces, r.size());
  for (size_t j = 0; j < pieces; ++j) {
    double b = rounds[0][j];
    for (const auto& r : rounds) b = std::min(b, r[j]);
    best.push_back(b);
  }
  return best;
}

/// A tail latency: the highest percentile that still has at least ten
/// samples beyond it, its value, and the sample count it came from.
struct Tail {
  double percentile = 0.0;  ///< 100 * (n - 10) / n; 0 when n <= 10.
  double value = 0.0;       ///< The 11th-largest sample; 0 when n <= 10.
  size_t samples = 0;       ///< n.
};

/// Applies the tail rule: with n sorted samples, the nearest-rank
/// percentile p has n - ceil(p n / 100) samples above its rank, so the
/// highest p leaving ten beyond it is rank n - 10, i.e. the 11th-largest
/// sample at p = 100 (n - 10) / n. With ten or fewer samples no percentile
/// qualifies and the tail is reported as 0 with its count.
inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= 10) return t;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

/// One traced interval. `parent` indexes the span that caused it (-1 for a
/// root); spans of one request or call share `request`.
struct Span {
  std::string name;
  double start = 0.0;  ///< Seconds since the tracer's epoch.
  double end = 0.0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children are clipped to
/// the parent, and overlapping children are counted once).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (size_t c : children[i]) {
      double lo = std::max(spans[c].start, s.start);
      double hi = std::min(spans[c].end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

/// Share of `total` spent in the `top` largest entries of `parts`.
inline double TopShare(std::vector<double> parts, size_t top) {
  double total = 0.0;
  for (double p : parts) total += p;
  if (total <= 0.0) return 0.0;
  std::sort(parts.begin(), parts.end(), std::greater<double>());
  double head = 0.0;
  for (size_t i = 0; i < std::min(top, parts.size()); ++i) head += parts[i];
  return head / total;
}

/// One answer entry as the checks see it.
struct Entry {
  uint32_t vertex = 0;
  double cb = 0.0;
};

/// True when `answer` is a correct top-k of `reference` restricted to
/// `universe` (every vertex when `universe` is empty), within `tol`:
///   * it holds min(k, |universe|) distinct vertices of the universe;
///   * every entry's value is its vertex's reference value;
///   * rank by rank, the values equal the universe's sorted reference
///     values, so no outsider beats a member (ties may pick either id).
inline bool MatchesTopK(const std::vector<Entry>& answer,
                        const std::vector<double>& reference,
                        const std::vector<uint32_t>& universe, uint32_t k,
                        double tol) {
  std::vector<uint32_t> members = universe;
  if (members.empty()) {
    members.resize(reference.size());
    for (uint32_t v = 0; v < reference.size(); ++v) members[v] = v;
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  size_t want = std::min<size_t>(k, members.size());
  if (answer.size() != want) return false;
  std::vector<double> values;
  values.reserve(members.size());
  for (uint32_t v : members) {
    if (v >= reference.size()) return false;
    values.push_back(reference[v]);
  }
  std::sort(values.begin(), values.end(), std::greater<double>());
  std::vector<uint32_t> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const Entry& e = answer[i];
    if (!std::binary_search(members.begin(), members.end(), e.vertex)) {
      return false;
    }
    if (std::fabs(e.cb - reference[e.vertex]) > tol) return false;
    if (std::fabs(e.cb - values[i]) > tol) return false;
    seen.push_back(e.vertex);
  }
  std::sort(seen.begin(), seen.end());
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

/// Outcome of one served query, as the client saw it.
struct Reply {
  bool transport_ok = true;  ///< The client call itself returned OK.
  bool verdict_ok = true;    ///< The server's verdict was kOk.
  bool certified = true;     ///< The answer claims to be complete.
  bool matches = true;       ///< A certified answer matched the reference.
};

/// Attempted and failed operations. A transport error, a non-OK verdict
/// (shed, deadline exceeded, rejected) or a certified answer that does not
/// match counts as failed; an uncertified anytime answer does not, it is
/// reported through the certified rate instead.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Record(const Reply& r) {
    Record(r.transport_ok && r.verdict_ok && (!r.certified || r.matches));
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

}  // namespace perfbench

#endif  // EGOBW_PERFBENCH_METRICS_H_
