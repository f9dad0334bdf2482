// Experiment F12 — paper §6.6 / Figure 12: user-study proxy.
//
// The paper injects bias into the COMPAS subgroup {age>45, charge=M}
// (all training outcomes set to "recidivate"), trains an MLP on the
// biased data, and asks humans — given the output of DivExplorer,
// Slice Finder, LIME, or raw examples — to name the top-5 itemsets most
// affected by errors. Humans are unavailable here, so each condition is
// scored with 1000 simulated users whose selection behavior mirrors the
// information each tool exposes (DESIGN.md §4):
//  * Group 1 (examples)    — aggregates items over shown misclassified
//    examples and guesses singles/pairs.
//  * Group 2 (DivExplorer) — selects 5 of the shown top-6 FPR itemsets.
//  * Group 3 (Slice Finder) — selects 5 of the returned slices.
//  * Group 4 (LIME)        — aggregates per-instance item weights from
//    a local surrogate and guesses singles/pairs from the top items.
//
// Following §5 of the paper, the MLP is trained on the *raw*
// (pre-discretization) features; DivExplorer then analyzes its
// predictions over the discretized attributes.
//
// Metrics follow the paper: hit = the injected itemset was selected
// (both items together); partial hit = exactly one of its items.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "model/featurize.h"
#include "model/logistic.h"
#include "model/mlp.h"
#include "model/split.h"
#include "slicefinder/slicefinder.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

// Scoring: each simulated user produces up to 5 itemsets.
struct HitTally {
  int hit = 0;
  int partial = 0;
  int none = 0;

  void Score(const std::vector<Itemset>& selections, uint32_t age,
             uint32_t charge) {
    bool full = false, part = false;
    for (const Itemset& sel : selections) {
      const bool has_age =
          std::find(sel.begin(), sel.end(), age) != sel.end();
      const bool has_charge =
          std::find(sel.begin(), sel.end(), charge) != sel.end();
      if (has_age && has_charge) full = true;
      if (has_age || has_charge) part = true;
    }
    if (full) {
      ++hit;
    } else if (part) {
      ++partial;
    } else {
      ++none;
    }
  }

  void Print(const char* label, int users) const {
    std::printf("%-22s hit=%5.1f%%  partial=%5.1f%%  combined=%5.1f%%\n",
                label, 100.0 * hit / users, 100.0 * partial / users,
                100.0 * (hit + partial) / users);
  }
};

// Weighted sample of k distinct items.
std::vector<uint32_t> SampleItems(
    const std::vector<std::pair<uint32_t, double>>& weighted, size_t k,
    Rng* rng) {
  std::vector<std::pair<uint32_t, double>> pool = weighted;
  std::vector<uint32_t> out;
  while (out.size() < k && !pool.empty()) {
    std::vector<double> w;
    w.reserve(pool.size());
    for (const auto& p : pool) w.push_back(std::max(p.second, 1e-9));
    const size_t idx = rng->Categorical(w);
    out.push_back(pool[idx].first);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(idx));
  }
  return out;
}

// Simulated "guessing" user: 5 selections, each a single item or (with
// probability pair_p) a pair of items, sampled by weight.
std::vector<Itemset> GuessSelections(
    const std::vector<std::pair<uint32_t, double>>& weighted,
    double pair_p, Rng* rng) {
  std::vector<Itemset> out;
  for (int sel = 0; sel < 5; ++sel) {
    if (rng->Bernoulli(pair_p) && weighted.size() >= 2) {
      out.push_back(MakeItemset(SampleItems(weighted, 2, rng)));
    } else {
      out.push_back(MakeItemset(SampleItems(weighted, 1, rng)));
    }
  }
  return out;
}

// Per-raw-column offsets into the one-hot feature layout built by
// FeaturizeOneHot (numeric column -> 1 slot, categorical -> #cats).
std::vector<size_t> OneHotOffsets(const DataFrame& df) {
  std::vector<size_t> offsets(df.num_columns() + 1, 0);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const Column& col = df.GetAt(c);
    offsets[c + 1] =
        offsets[c] + (col.is_categorical() ? col.num_categories() : 1);
  }
  return offsets;
}

}  // namespace

int main() {
  // --- Build COMPAS, inject bias in the training part, train MLP. ---
  auto ds = MakeCompas();
  if (!ds.ok()) return 1;
  Rng rng(2026);
  const size_t n = ds->discretized.num_rows();
  const TrainTestSplit split = MakeTrainTestSplit(n, 0.3, &rng);

  // Raw features feed the classifier (paper §5: discretization happens
  // after classification).
  auto raw_x = FeaturizeOneHot(ds->raw, ds->raw.ColumnNames());
  if (!raw_x.ok()) return 1;
  StandardizeInPlace(&(*raw_x));
  const std::vector<size_t> raw_offsets = OneHotOffsets(ds->raw);

  auto encoded_all = EncodeDataFrame(ds->discretized);
  if (!encoded_all.ok()) return 1;
  const uint32_t item_age = *encoded_all->catalog.FindItem("age", ">45");
  const uint32_t item_charge =
      *encoded_all->catalog.FindItem("charge", "M");
  const uint32_t age_attr = encoded_all->catalog.item(item_age).attribute;
  const uint32_t charge_attr =
      encoded_all->catalog.item(item_charge).attribute;
  auto in_subgroup = [&](size_t row) {
    return encoded_all->at(row, age_attr) == item_age &&
           encoded_all->at(row, charge_attr) == item_charge;
  };

  // Inject: all training outcomes in {age>45, charge=M} -> recidivate.
  std::vector<int> train_truth;
  train_truth.reserve(split.train.size());
  for (size_t r : split.train) {
    train_truth.push_back(in_subgroup(r) ? 1 : ds->truth[r]);
  }
  const Matrix train_x = raw_x->TakeRows(split.train);
  MlpClassifier mlp;
  MlpOptions mopts;
  mopts.epochs = 120;
  mopts.hidden_units = 32;
  mopts.learning_rate = 0.03;
  if (!mlp.Fit(train_x, train_truth, mopts).ok()) return 1;

  // Test set (unmodified labels).
  const Matrix test_x = raw_x->TakeRows(split.test);
  std::vector<int> test_truth;
  for (size_t r : split.test) test_truth.push_back(ds->truth[r]);
  const std::vector<int> test_pred = mlp.PredictAll(test_x);

  const DataFrame test_frame = ds->discretized.Take(split.test);
  auto encoded_test = EncodeDataFrame(test_frame);
  if (!encoded_test.ok()) return 1;

  std::printf("== Figure 12: user-study proxy (injected bias: age>45, "
              "charge=M) ==\n\n");
  {
    size_t sub_n = 0, sub_pred1 = 0, all_pred1 = 0;
    for (size_t i = 0; i < split.test.size(); ++i) {
      all_pred1 += test_pred[i];
      if (in_subgroup(split.test[i])) {
        ++sub_n;
        sub_pred1 += test_pred[i];
      }
    }
    std::printf("test rows=%zu, predicted-positive overall=%.2f, in "
                "biased subgroup=%.2f (n=%zu)\n\n",
                split.test.size(),
                static_cast<double>(all_pred1) / split.test.size(),
                sub_n ? static_cast<double>(sub_pred1) / sub_n : 0.0,
                sub_n);
  }

  const int kUsers = 1000;

  // ---- Group 2: DivExplorer top-6 FPR itemsets. ----
  ExplorerOptions eopts;
  eopts.min_support = 0.05;
  DivergenceExplorer explorer(eopts);
  auto table = explorer.Explore(*encoded_test, test_pred, test_truth,
                                Metric::kFalsePositiveRate);
  if (!table.ok()) return 1;
  const auto top6 = table->TopK(6);
  std::printf("DivExplorer top-6 FPR itemsets shown to group 2:\n");
  for (size_t i : top6) {
    std::printf("  %-45s d=%+.3f\n",
                ItemsetName(table->catalog(), table->row_items(i)).c_str(),
                table->divergence(i));
  }
  HitTally g2;
  Rng g2_rng(1);
  for (int u = 0; u < kUsers; ++u) {
    std::vector<Itemset> sel;
    const size_t drop = g2_rng.Below(top6.size());
    for (size_t i = 0; i < top6.size(); ++i) {
      if (i == drop) continue;
      const ItemSpan items = table->row_items(top6[i]);
      sel.emplace_back(items.begin(), items.end());
    }
    g2.Score(sel, item_age, item_charge);
  }

  // ---- Group 3: Slice Finder, degree 3, default parameters. ----
  // Slice Finder consumes the classifier's log loss (its reference
  // design); confidently-wrong regions dominate, which is what makes
  // its default search stop at single-item fragments in the paper.
  auto log_loss = LogLoss(mlp.PredictProbaAll(test_x), test_truth);
  if (!log_loss.ok()) return 1;
  SliceFinderOptions sf_opts;
  sf_opts.max_degree = 3;
  SliceFinder finder(sf_opts);
  auto slices = finder.FindSlices(*encoded_test, *log_loss);
  if (!slices.ok()) return 1;
  std::printf("\nSlice Finder slices shown to group 3:\n");
  for (const Slice& s : *slices) {
    std::printf("  %-45s effect=%.2f\n",
                table->ItemsetName(s.items).c_str(), s.effect_size);
  }
  HitTally g3;
  Rng g3_rng(2);
  for (int u = 0; u < kUsers; ++u) {
    std::vector<Itemset> sel;
    for (size_t i = 0; i < slices->size() && sel.size() < 5; ++i) {
      if (sel.size() == 4 && slices->size() > 5 && g3_rng.Bernoulli(0.3)) {
        sel.push_back(
            (*slices)[5 + g3_rng.Below(slices->size() - 5)].items);
        break;
      }
      sel.push_back((*slices)[i].items);
    }
    g3.Score(sel, item_age, item_charge);
  }

  // ---- Group 4: mini-LIME on 8 misclassified + 8 correct rows. ----
  std::vector<size_t> wrong, right;  // indices into split.test
  for (size_t i = 0; i < test_pred.size(); ++i) {
    (test_pred[i] != test_truth[i] ? wrong : right).push_back(i);
  }
  Rng lime_rng(3);
  lime_rng.Shuffle(&wrong);
  lime_rng.Shuffle(&right);

  // One-hot layout of the *item* space (surrogate features): column k
  // of the surrogate corresponds to item id k.
  const uint32_t num_items = encoded_test->catalog.num_items();
  // Precompute a pool of LIME explanations; each simulated user is
  // shown 8 random misclassified instances drawn from the pool (the
  // paper showed one fixed draw to 8-9 humans; the pool averages over
  // that draw's randomness).
  const size_t kPool = std::min<size_t>(48, wrong.size());
  std::vector<std::map<uint32_t, double>> lime_pool(kPool);
  size_t pool_in_subgroup = 0;
  for (size_t k = 0; k < kPool; ++k) {
    if (in_subgroup(split.test[wrong[k]])) ++pool_in_subgroup;
  }
  std::printf("\nLIME: %zu of %zu pooled misclassified rows lie in the "
              "biased subgroup\n",
              pool_in_subgroup, kPool);
  const size_t n_explain = kPool;
  for (size_t k = 0; k < n_explain; ++k) {
    const size_t test_idx = wrong[k];
    const size_t global_row = split.test[test_idx];
    // Perturbations mix columns from random donor rows, giving
    // consistent raw (for the model) and discretized (for the
    // surrogate) views.
    const int kSamples = 200;
    Matrix sx(kSamples, num_items);       // surrogate features
    Matrix mx(kSamples, raw_x->cols());   // model features
    std::vector<double> targets(kSamples), weights(kSamples);
    for (int s = 0; s < kSamples; ++s) {
      int flips = 0;
      for (size_t c = 0; c < ds->raw.num_columns(); ++c) {
        size_t source_row = global_row;
        if (lime_rng.Bernoulli(0.3)) {
          source_row = lime_rng.Below(n);
          if (encoded_all->at(source_row, c) !=
              encoded_all->at(global_row, c)) {
            ++flips;
          }
        }
        // Raw feature block from the source row.
        for (size_t f = raw_offsets[c]; f < raw_offsets[c + 1]; ++f) {
          mx.at(s, f) = raw_x->at(source_row, f);
        }
        // Discretized item indicator from the source row.
        sx.at(s, encoded_all->at(source_row, c)) = 1.0;
      }
      targets[s] = mlp.PredictProba(mx.row(s));
      weights[s] = std::exp(-flips / 2.0);
    }
    LogisticRegression surrogate;
    LogisticOptions lopts;
    lopts.epochs = 150;
    lopts.learning_rate = 0.5;
    if (!surrogate.FitWeighted(sx, targets, weights, lopts).ok()) continue;
    // Attribute weight to the items of the explained instance.
    for (size_t c = 0; c < ds->raw.num_columns(); ++c) {
      const uint32_t item = encoded_all->at(global_row, c);
      lime_pool[k][item] += std::max(0.0, surrogate.weights()[item]);
    }
  }
  // Show the pool-average top items (what a typical user draw reveals).
  std::map<uint32_t, double> lime_weight;
  for (const auto& per_instance : lime_pool) {
    for (const auto& [item, w] : per_instance) lime_weight[item] += w;
  }
  std::vector<std::pair<uint32_t, double>> lime_ranked(
      lime_weight.begin(), lime_weight.end());
  std::sort(lime_ranked.begin(), lime_ranked.end(),
            [](const auto& a, const auto& b) {
              return a.second > b.second;
            });
  if (lime_ranked.size() > 8) lime_ranked.resize(8);
  std::printf("LIME top items (pool average) shown to group 4:\n");
  for (const auto& [item, w] : lime_ranked) {
    std::printf("  %-30s weight=%.3f\n",
                encoded_test->catalog.ItemName(item).c_str(),
                w / static_cast<double>(kPool));
  }
  HitTally g4;
  Rng g4_rng(4);
  for (int u = 0; u < kUsers; ++u) {
    // Each user sees 8 random explanations from the pool.
    std::map<uint32_t, double> agg;
    for (int pick = 0; pick < 8; ++pick) {
      const auto& inst = lime_pool[g4_rng.Below(lime_pool.size())];
      for (const auto& [item, w] : inst) agg[item] += w;
    }
    std::vector<std::pair<uint32_t, double>> ranked(agg.begin(),
                                                    agg.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                return a.second > b.second;
              });
    if (ranked.size() > 8) ranked.resize(8);
    g4.Score(GuessSelections(ranked, 0.35, &g4_rng), item_age,
             item_charge);
  }

  // ---- Group 1: raw examples only. ----
  // Each user inspects 8 random misclassified + 8 random correct rows
  // and guesses from items over-represented among the misclassified.
  HitTally g1;
  Rng g1_rng(5);
  for (int u = 0; u < kUsers; ++u) {
    std::map<uint32_t, double> example_weight;
    for (int k = 0; k < 8 && !wrong.empty(); ++k) {
      const size_t row = wrong[g1_rng.Below(wrong.size())];
      for (uint32_t a = 0; a < encoded_test->num_attributes; ++a) {
        example_weight[encoded_test->at(row, a)] += 1.0;
      }
    }
    for (int k = 0; k < 8 && !right.empty(); ++k) {
      const size_t row = right[g1_rng.Below(right.size())];
      for (uint32_t a = 0; a < encoded_test->num_attributes; ++a) {
        example_weight[encoded_test->at(row, a)] -= 0.5;
      }
    }
    std::vector<std::pair<uint32_t, double>> example_ranked;
    for (const auto& [item, w] : example_weight) {
      if (w > 0.0) example_ranked.emplace_back(item, w);
    }
    g1.Score(GuessSelections(example_ranked, 0.35, &g1_rng), item_age,
             item_charge);
  }

  std::printf("\n%d simulated users per group:\n", kUsers);
  g1.Print("group 1 (examples)", kUsers);
  g2.Print("group 2 (DivExplorer)", kUsers);
  g3.Print("group 3 (SliceFinder)", kUsers);
  g4.Print("group 4 (LIME)", kUsers);
  std::printf(
      "\npaper (35 humans): DivExplorer combined 88.9%%, Slice Finder "
      "mostly partial, LIME combined 37.5%%, examples 20%%\n");
  return 0;
}
