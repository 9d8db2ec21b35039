// Ablation studies: each row switches one protocol knob of
// scenario::ExperimentConfig away from its paper default (no paper figure):
//   (a) retransmission off vs on
//   (b) FIFO vs control-priority upload queue
//   (c) HEAP max-fanout cap
//   (d) aggregation gossip fanout (estimate accuracy vs cost)
//   (e) randomized-rounding vs floor fanout
// Each row reports stream quality on ms-691 (the hardest distribution).
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace hg;
using namespace hg::bench;

struct Row {
  std::string name;
  double jitter10_pct;     // mean % jittered windows at 10 s lag
  double median_lag;       // median lag to jitter-free (s), or inf
  double mean_usage_pct;   // mean upload usage over constrained nodes
};

Row measure(const std::string& name, scenario::ExperimentConfig cfg) {
  auto exp = run(std::move(cfg), name.c_str());
  Row r;
  r.name = name;
  r.jitter10_pct = jitter_percent_at_lag(exp, 10.0).mean();
  const auto lags = jitter_free_lags(exp, 0.0);
  r.median_lag = (lags.count() * 2 >= exp.receivers()) ? lags.percentile(50)
                                                       : std::nan("");
  double usage = 0;
  std::size_t n = 0;
  for (const auto& run : exp.runs) {
    for (std::size_t i = 0; i < run->receivers(); ++i) {
      if (run->info(i).capability.is_unlimited() || run->info(i).crashed) continue;
      usage += run->upload_usage(i);
      ++n;
    }
  }
  r.mean_usage_pct = 100.0 * usage / static_cast<double>(n);
  return r;
}

}  // namespace

int main() {
  const Scale s = scale_from_env();
  print_header("Ablations on ms-691 (HEAP unless noted)",
               "no paper figure; one scenario::ExperimentConfig knob per row",
               "quantifies each design choice in isolation");

  const auto dist = scenario::BandwidthDistribution::ms691();
  std::vector<Row> rows;

  rows.push_back(measure("baseline HEAP", base_config(s, core::Mode::kHeap, dist)));

  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.max_retransmits = 0;
    rows.push_back(measure("(a) no retransmission", std::move(cfg)));
  }
  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.discipline = net::QueueDiscipline::kControlPriority;
    rows.push_back(measure("(b) control-priority queue", std::move(cfg)));
  }
  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.max_fanout = 12.0;  // caps the 3 Mbps class at 12 instead of ~31
    rows.push_back(measure("(c) max fanout 12", std::move(cfg)));
  }
  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.aggregation.fanout = 3;  // 3x the aggregation traffic
    rows.push_back(measure("(d) aggregation fanout 3", std::move(cfg)));
  }
  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.rounding = gossip::FanoutRounding::kFloor;
    rows.push_back(measure("(e) floor fanout rounding", std::move(cfg)));
  }
  {
    auto cfg = base_config(s, core::Mode::kHeap, dist);
    cfg.smart_receivers = false;
    rows.push_back(measure("(f) naive receivers", std::move(cfg)));
  }

  metrics::Table t({"variant", "jitter@10s", "median lag (s)", "upload usage"});
  for (const auto& r : rows) {
    t.add_row({r.name, metrics::Table::num(r.jitter10_pct, 1) + "%",
               std::isnan(r.median_lag) ? "> horizon" : metrics::Table::num(r.median_lag, 1),
               metrics::Table::num(r.mean_usage_pct, 1) + "%"});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
