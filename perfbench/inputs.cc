#include "inputs.h"

#include <cmath>
#include <random>

#include "pubsub/workload.h"

namespace perfbench {

namespace {

/// Interval of the i-th (1-based) filter of a Fig. 7 `covered` family: the
/// root spans the space, leaves are disjoint 500-wide slices.
Interval covered_interval(int i) {
  if (i == 1) return {tmps::kSpaceLo, tmps::kSpaceHi};
  return {(i - 2) * 1000, (i - 2) * 1000 + 500};
}

std::uint32_t scaled(std::uint32_t per_s, double seconds) {
  return static_cast<std::uint32_t>(std::llround(per_s * seconds));
}

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  Interval range(const Workload& w) {
    const std::int64_t width = uniform(w.width_lo, w.width_hi);
    const std::int64_t lo = uniform(tmps::kSpaceLo, tmps::kSpaceHi - width);
    return {lo, lo + width};
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace

const char* to_string(Phase p) {
  switch (p) {
    case kOpen: return "open";
    case kClosed: return "closed";
    case kPaced: return "paced";
    case kUnpaced: return "unpaced";
    case kPhases: break;
  }
  return "?";
}

Inputs generate(const Workload& w, std::uint64_t seed, double seconds) {
  Draw draw(seed);
  Inputs in;
  const bool fig7 = w.shape == FilterShape::kFig7Covered;

  for (std::uint32_t k = 0; k < w.subscribers; ++k) {
    SubSpec s;
    s.client = 1000 + k;
    s.home = w.sub_brokers[k % w.sub_brokers.size()];
    if (fig7) {
      s.group = (k / 10) % w.families;
      s.iv = covered_interval(static_cast<int>(k % 10) + 1);
    } else {
      s.iv = draw.range(w);
    }
    in.subs.push_back(s);
  }
  in.stationary = w.subscribers;
  for (std::uint32_t m = 0; m < w.movers; ++m) {
    SubSpec s;
    s.client = 100000 + m;
    s.home = m % 2 == 0 ? w.mover_a : w.mover_b;
    s.mover = true;
    if (fig7) {
      // Round-robin intervals: the family root matches every publication
      // of its family, so a drawn interval would let the number of root
      // movers, and with it the load, change from seed to seed.
      s.group = draw.uniform(0, w.families - 1);
      s.iv = covered_interval(static_cast<int>(m % 10) + 1);
    } else {
      s.iv = draw.range(w);
    }
    in.subs.push_back(s);
  }

  const std::array<std::uint32_t, kPhases> counts = {
      scaled(w.open_pubs_per_s, seconds), scaled(w.paced_pubs_per_s, seconds),
      scaled(w.unpaced_pubs_per_s, seconds),
      scaled(w.closed_pubs_per_s, seconds)};
  const std::array<double, kPhases> rates = {w.open_rate, w.move_pub_rate,
                                             w.move_pub_rate, 0};
  const std::array<std::uint32_t, kPhases> churn_every = {
      w.churn_every_open, 0, 0, w.churn_every_closed};
  for (int p = 0; p < kPhases; ++p) {
    in.phase_begin[p] = static_cast<std::uint32_t>(in.pubs.size());
    for (std::uint32_t j = 0; j < counts[p]; ++j) {
      PubSpec pub;
      if (fig7) pub.g = draw.uniform(0, w.families - 1);
      pub.x = draw.uniform(tmps::kSpaceLo, tmps::kSpaceHi);
      pub.phase = static_cast<Phase>(p);
      pub.due_s = rates[p] > 0 ? j / rates[p] : 0.0;
      if (churn_every[p] > 0 && j % churn_every[p] == churn_every[p] - 1) {
        ChurnOp op;
        op.before_pub = static_cast<std::uint32_t>(in.pubs.size());
        op.sub = static_cast<std::uint32_t>(draw.uniform(0, w.subscribers - 1));
        op.iv = draw.range(w);
        in.churn.push_back(op);
      }
      in.pubs.push_back(pub);
    }
  }
  in.phase_begin[kPhases] = static_cast<std::uint32_t>(in.pubs.size());

  if (w.movers > 0) {
    in.paced_moves_per_mover =
        (scaled(w.paced_moves_per_s, seconds) + w.movers - 1) / w.movers;
    in.unpaced_moves_per_mover =
        (scaled(w.unpaced_moves_per_s, seconds) + w.movers - 1) / w.movers;
  }
  return in;
}

tmps::Filter filter_of(const SubSpec& s, const Interval& iv) {
  auto b = tmps::Filter::build();
  b.attr("class").eq("STOCK");
  if (s.group >= 0) b.attr("g").eq(s.group);
  b.attr("x").ge(iv.lo).le(iv.hi);
  return b;
}

tmps::Publication publication_of(const Inputs& in, std::uint32_t i) {
  const PubSpec& p = in.pubs[i];
  return tmps::make_publication(tmps::PublicationId{in.publisher,
                                                    kPubSeqBase + i},
                                p.x, p.g);
}

}  // namespace perfbench
