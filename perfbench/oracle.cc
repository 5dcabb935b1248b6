#include "oracle.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

Oracle::Oracle(const Inputs& in, std::uint32_t race_window) {
  // Candidates per Fig. 7 family; range subscribers match any family.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> by_group;
  std::vector<std::uint32_t> ungrouped;
  std::vector<Interval> cur(in.subs.size());
  for (std::uint32_t s = 0; s < in.subs.size(); ++s) {
    cur[s] = in.subs[s].iv;
    if (in.subs[s].group >= 0) {
      by_group[in.subs[s].group].push_back(s);
    } else {
      ungrouped.push_back(s);
    }
  }
  // The interval each replacement retires.
  std::vector<Interval> retired(in.churn.size());
  {
    std::vector<Interval> iv = cur;
    for (std::size_t k = 0; k < in.churn.size(); ++k) {
      retired[k] = iv[in.churn[k].sub];
      iv[in.churn[k].sub] = in.churn[k].iv;
    }
  }

  std::size_t applied = 0;  // replacements issued before publication i
  std::size_t near = 0;     // first replacement within the race window
  std::vector<std::uint32_t> racing;
  static const std::vector<std::uint32_t> kNone;
  for (std::uint32_t i = 0; i < in.pubs.size(); ++i) {
    const PubSpec& p = in.pubs[i];
    while (applied < in.churn.size() && in.churn[applied].before_pub <= i) {
      cur[in.churn[applied].sub] = in.churn[applied].iv;
      ++applied;
    }
    while (near < in.churn.size() &&
           in.churn[near].before_pub + race_window < i) {
      ++near;
    }
    racing.clear();
    for (std::size_t k = near;
         k < in.churn.size() && in.churn[k].before_pub <= i + race_window;
         ++k) {
      const SubSpec& s = in.subs[in.churn[k].sub];
      if (holds(s, retired[k], p) || holds(s, in.churn[k].iv, p)) {
        racing.push_back(in.churn[k].sub);
      }
    }

    begin_.push_back(static_cast<std::uint32_t>(recv_.size()));
    std::uint32_t required = 0;
    const bool moving = p.phase == kPaced || p.phase == kUnpaced;
    const auto g = by_group.find(p.g);
    const std::vector<std::uint32_t>* grouped =
        g == by_group.end() ? &kNone : &g->second;
    const std::vector<std::uint32_t>* lists[] = {grouped, &ungrouped};
    for (const std::vector<std::uint32_t>* list : lists) {
      for (const std::uint32_t s : *list) {
        const bool race =
            std::find(racing.begin(), racing.end(), s) != racing.end();
        if (!race && !holds(in.subs[s], cur[s], p)) continue;
        const bool maybe = race || (moving && in.subs[s].mover);
        recv_.push_back({in.subs[s].client, maybe, in.subs[s].mover});
        if (!maybe) ++required;
      }
    }
    required_.push_back(required);
  }
  begin_.push_back(static_cast<std::uint32_t>(recv_.size()));
}

Oracle::Verdict Oracle::verify(const std::vector<std::uint32_t>& counts,
                               std::uint64_t unexpected) const {
  Verdict v;
  v.unexpected = unexpected;
  for (std::uint32_t s = 0; s < recv_.size(); ++s) {
    if (recv_[s].maybe) {
      ++v.excluded;
      if (counts[s] == 0) ++v.maybe_missed;
    } else {
      ++v.required;
      if (counts[s] == 0) ++v.lost;
    }
    if (counts[s] > 1) v.duplicates += counts[s] - 1;
  }
  return v;
}

bool Oracle::self_check(const std::vector<std::uint32_t>& counts,
                        std::uint64_t unexpected) const {
  const Verdict base = verify(counts, unexpected);
  // Two distinct required slots that saw exactly one delivery.
  std::vector<std::uint32_t> picks;
  for (std::uint32_t s = 0; s < recv_.size() && picks.size() < 2; ++s) {
    if (!recv_[s].maybe && counts[s] == 1) picks.push_back(s);
  }
  if (picks.size() < 2) return false;
  std::vector<std::uint32_t> withheld = counts;
  withheld[picks[0]] = 0;
  std::vector<std::uint32_t> duplicated = counts;
  duplicated[picks[1]] = 2;
  return verify(withheld, unexpected).lost == base.lost + 1 &&
         verify(duplicated, unexpected).duplicates == base.duplicates + 1;
}

}  // namespace perfbench
