#include "symbolic/state_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::symbolic {
namespace {

CompiledVariable variable(const std::string& name, int32_t low, int32_t high,
                          int32_t init = 0) {
  CompiledVariable v;
  v.name = name;
  v.module = "m";
  v.low = low;
  v.high = high;
  v.init = init == 0 && (low > 0 || high < 0) ? low : init;
  return v;
}

CompiledModel model_of(std::vector<CompiledVariable> variables) {
  CompiledModel model;
  model.variables = std::move(variables);
  return model;
}

TEST(EngineToken, RoundTrips) {
  for (const ExplorationEngine engine :
       {ExplorationEngine::kAuto, ExplorationEngine::kCompact}) {
    const auto parsed = parse_engine_token(engine_token(engine));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, engine);
  }
  EXPECT_FALSE(parse_engine_token("fast").has_value());
  EXPECT_FALSE(parse_engine_token("").has_value());
  // The removed vector-of-valuations store's token is unknown now.
  EXPECT_FALSE(parse_engine_token("classic").has_value());
}

TEST(StateLayout, MinimumOneBitPerVariable) {
  // A degenerate [5..5] variable still occupies one bit.
  const StateLayout layout(
      {variable("a", 5, 5, 5), variable("b", 0, 1), variable("c", 0, 1)});
  EXPECT_EQ(layout.bits(), 3u);
  EXPECT_EQ(layout.words(), 1u);
}

TEST(StateLayout, WidthsFollowDeclaredRanges) {
  // ranges 1, 6, 255, 256 -> 1, 3, 8, 9 bits.
  const StateLayout layout({variable("a", 0, 1), variable("b", -3, 3, -3),
                            variable("c", 0, 255), variable("d", 0, 256)});
  EXPECT_EQ(layout.bits(), 1u + 3u + 8u + 9u);
  EXPECT_EQ(layout.words(), 1u);
  EXPECT_EQ(layout.bytes(), 8u);
}

TEST(StateLayout, PackUnpackRoundTripsFullRanges) {
  const std::vector<CompiledVariable> vars = {
      variable("a", -2, 2, -2), variable("b", 0, 6), variable("c", -1, 0, -1),
      variable("d", 3, 10, 3)};
  const StateLayout layout(vars);
  std::vector<int32_t> values(4), back(4);
  uint64_t packed[1];
  for (int32_t a = -2; a <= 2; ++a)
    for (int32_t b = 0; b <= 6; ++b)
      for (int32_t c = -1; c <= 0; ++c)
        for (int32_t d = 3; d <= 10; ++d) {
          values = {a, b, c, d};
          layout.pack(values, packed);
          layout.unpack(packed, back);
          ASSERT_EQ(back, values);
        }
}

TEST(StateLayout, FullInt32RangeRoundTrips) {
  // range 2^32-1 -> a full 32-bit field, including negative extremes.
  const std::vector<CompiledVariable> vars = {
      variable("wide", INT32_MIN, INT32_MAX, 0), variable("b", 0, 1)};
  const StateLayout layout(vars);
  EXPECT_EQ(layout.bits(), 33u);
  std::vector<int32_t> back(2);
  uint64_t packed[1];
  for (const int32_t x : {INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1,
                          INT32_MAX}) {
    const std::vector<int32_t> values = {x, 1};
    layout.pack(values, packed);
    layout.unpack(packed, back);
    ASSERT_EQ(back, values);
  }
}

TEST(StateLayout, FieldsStraddlingWordBoundariesRoundTrip) {
  // Three 31-bit fields: the third occupies bits 62..92, straddling the
  // word-0/word-1 boundary.
  const std::vector<CompiledVariable> vars = {
      variable("a", 0, INT32_MAX), variable("b", 0, INT32_MAX),
      variable("c", 0, INT32_MAX), variable("d", -4, 3, -4)};
  const StateLayout layout(vars);
  EXPECT_EQ(layout.bits(), 31u * 3 + 3u);
  EXPECT_EQ(layout.words(), 2u);
  std::mt19937_64 rng(7);
  std::vector<int32_t> back(4);
  uint64_t packed[2];
  for (int i = 0; i < 2000; ++i) {
    const std::vector<int32_t> values = {
        static_cast<int32_t>(rng() & INT32_MAX),
        static_cast<int32_t>(rng() & INT32_MAX),
        static_cast<int32_t>(rng() & INT32_MAX),
        static_cast<int32_t>(rng() % 8) - 4};
    layout.pack(values, packed);
    layout.unpack(packed, back);
    ASSERT_EQ(back, values);
  }
}

TEST(CompactStore, InternsDeduplicatesAndUnpacks) {
  const CompiledModel model =
      model_of({variable("x", 0, 100), variable("y", -50, 50, -50)});
  StateStore store(model);
  bool inserted = false;
  const std::vector<int32_t> first = {3, -7};
  const std::vector<int32_t> second = {3, 7};
  EXPECT_EQ(store.intern(first, inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(store.intern(second, inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(store.intern(first, inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(store.size(), 2u);
  std::vector<int32_t> out;
  store.values_of(0, out);
  EXPECT_EQ(out, first);
  store.values_of(1, out);
  EXPECT_EQ(out, second);
}

TEST(CompactStore, TinyTableForcesCollisionsAndRehash) {
  // A 16-slot initial table with 5000 distinct states exercises linear
  // probing, deep compares on colliding hashes, and repeated rehash growth.
  const CompiledModel model =
      model_of({variable("x", 0, 4999), variable("y", 0, 4999)});
  StateStore store(model, 16);
  bool inserted = false;
  for (int32_t i = 0; i < 5000; ++i) {
    const std::vector<int32_t> values = {i, 4999 - i};
    ASSERT_EQ(store.intern(values, inserted), static_cast<uint32_t>(i));
    ASSERT_TRUE(inserted);
  }
  ASSERT_EQ(store.size(), 5000u);
  // Every state survives the rehashes: ids are stable and dedup still works.
  std::vector<int32_t> out;
  for (int32_t i = 0; i < 5000; ++i) {
    const std::vector<int32_t> values = {i, 4999 - i};
    ASSERT_EQ(store.intern(values, inserted), static_cast<uint32_t>(i));
    ASSERT_FALSE(inserted);
    store.values_of(static_cast<size_t>(i), out);
    ASSERT_EQ(out, values);
  }
}

TEST(StateStore, MatchesMapReferenceUnderCollisionsAndRehash) {
  // Random intern() traffic with many repeats against a std::map reference
  // that assigns ids in first-seen order: a 16-slot table forces collision
  // chains and rehash growth, on a one-word layout and on a two-word layout
  // whose third field straddles the word boundary.
  for (const int32_t high : {7, INT32_MAX}) {
    const CompiledModel model = model_of(
        {variable("a", 0, high), variable("b", 0, high), variable("c", 0, high)});
    StateStore store(model, 16);
    std::map<std::vector<int32_t>, uint32_t> reference;
    std::mt19937_64 rng(11);
    std::vector<int32_t> out;
    for (int i = 0; i < 3000; ++i) {
      const int32_t spread = high == 7 ? 8 : 40;
      const std::vector<int32_t> values = {
          static_cast<int32_t>(rng() % spread), static_cast<int32_t>(rng() % spread),
          high == 7 ? static_cast<int32_t>(rng() % 8)
                    : static_cast<int32_t>(high - static_cast<int32_t>(rng() % 3))};
      const auto [it, fresh] =
          reference.try_emplace(values, static_cast<uint32_t>(reference.size()));
      bool inserted = false;
      ASSERT_EQ(store.intern(values, inserted), it->second);
      ASSERT_EQ(inserted, fresh);
    }
    ASSERT_EQ(store.size(), reference.size());
    for (const auto& [values, id] : reference) {
      store.values_of(id, out);
      ASSERT_EQ(out, values);
    }
  }
}

TEST(CompactStore, BytesPerStateTracksPackedWidth) {
  const CompiledModel narrow = model_of({variable("x", 0, 1)});
  const CompiledModel wide = model_of(
      {variable("a", 0, INT32_MAX), variable("b", 0, INT32_MAX),
       variable("c", 0, INT32_MAX)});
  EXPECT_EQ(StateStore(narrow).bytes_per_state(), 8u + 8u);
  EXPECT_EQ(StateStore(wide).bytes_per_state(), 16u + 8u);
}

/// A model wide enough (>64 packed bits) that each state packs into two
/// words.
Model wide_chain_model() {
  ModelBuilder b;
  auto& m = b.module("p");
  m.variable("x", 0, 1 << 20, 0);
  m.variable("y", 0, 1 << 20, 0);
  m.variable("z", 0, 1 << 20, 0);
  m.variable("w", 0, 7, 0);
  m.command(Expr::ident("x") < Expr::literal(40), Expr::literal(1.0),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  m.command(Expr::ident("y") < Expr::literal(10), Expr::literal(2.0),
            {{"y", Expr::ident("y") + Expr::literal(1)}});
  m.command(Expr::ident("w") < Expr::literal(7), Expr::literal(0.5),
            {{"w", Expr::ident("w") + Expr::literal(1)}});
  return b.build();
}

TEST(ExploreEngines, AutoAndCompactProduceIdenticalSpaces) {
  // Both engine tokens explore into the same store; on a model without
  // interchangeable modules compact's reduction finds nothing to collapse,
  // so the spaces are identical state for state and rate for rate.
  const auto compiled =
      std::make_shared<const CompiledModel>(compile(wide_chain_model()));
  ExploreOptions compact_options;
  compact_options.engine = ExplorationEngine::kCompact;
  const StateSpace automatic = explore(compiled);
  const StateSpace compact = explore(compiled, compact_options);

  EXPECT_FALSE(compact.reduced());
  ASSERT_EQ(automatic.state_count(), compact.state_count());
  EXPECT_EQ(automatic.transition_count(), compact.transition_count());
  EXPECT_EQ(automatic.initial_state(), compact.initial_state());
  for (size_t i = 0; i < automatic.state_count(); ++i) {
    ASSERT_EQ(automatic.state_values(i), compact.state_values(i));
  }
  for (size_t r = 0; r < automatic.state_count(); ++r) {
    const auto ac = automatic.rates().row_columns(r);
    const auto kc = compact.rates().row_columns(r);
    ASSERT_EQ(std::vector<uint32_t>(ac.begin(), ac.end()),
              std::vector<uint32_t>(kc.begin(), kc.end()));
    const auto av = automatic.rates().row_values(r);
    const auto kv = compact.rates().row_values(r);
    for (size_t k = 0; k < av.size(); ++k) ASSERT_EQ(av[k], kv[k]);
  }
}

TEST(ExploreEngines, AutoResolvesCompactBeyondSixtyFourBits) {
  const auto compiled =
      std::make_shared<const CompiledModel>(compile(wide_chain_model()));
  const StateSpace space = explore(compiled);  // engine = kAuto
  EXPECT_STREQ(space.engine_name(), "compact");
  EXPECT_FALSE(space.reduced());  // auto engine never enables reduction
  EXPECT_LT(space.bytes_per_state(), 32u);
}

}  // namespace
}  // namespace autosec::symbolic
