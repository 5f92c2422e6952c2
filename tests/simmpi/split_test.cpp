// Comm::split at widths where the one-sort set-up matters: random and
// negative colors, duplicate and descending keys, a nested split, and a
// Window over the result.  Every rank's position, group size and member
// world ranks are checked against a reference computed directly from the
// (color, key) table, MPI_Comm_split's definition: a group is every rank
// with the same color, ordered by (key, parent rank).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "simmpi/runtime.hpp"
#include "simmpi/window.hpp"

namespace dds::simmpi {
namespace {

using model::test_machine;

/// One split's arguments for every rank of the parent comm.
struct Args {
  std::vector<int> color;
  std::vector<int> key;
};

/// Parent ranks of `r`'s group, in new-rank order.
std::vector<int> reference_group(const Args& a, int r) {
  std::vector<int> members;
  for (int s = 0; s < static_cast<int>(a.color.size()); ++s) {
    if (a.color[static_cast<std::size_t>(s)] ==
        a.color[static_cast<std::size_t>(r)]) {
      members.push_back(s);
    }
  }
  std::sort(members.begin(), members.end(), [&](int x, int y) {
    return std::tie(a.key[static_cast<std::size_t>(x)], x) <
           std::tie(a.key[static_cast<std::size_t>(y)], y);
  });
  return members;
}

enum class Scheme { RandomDupKeys, NegativeDescending, OneColorSameKey };

Args make_args(Scheme scheme, int n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  Args a;
  for (int r = 0; r < n; ++r) {
    switch (scheme) {
      case Scheme::RandomDupKeys:  // colors in [-3, 4], keys collide
        a.color.push_back(static_cast<int>(gen() % 8) - 3);
        a.key.push_back(static_cast<int>(gen() % 3));
        break;
      case Scheme::NegativeDescending:
        a.color.push_back(-1 - r % 5);
        a.key.push_back(n - r);
        break;
      case Scheme::OneColorSameKey:
        a.color.push_back(7);
        a.key.push_back(0);
        break;
    }
  }
  return a;
}

/// Checks `sub` (this rank's result of splitting `parent` with `a`)
/// against the reference; `parent_world[i]` is parent rank i's world rank.
void expect_matches(const Comm& sub, const Args& a, int parent_rank,
                    const std::vector<int>& parent_world) {
  const std::vector<int> members = reference_group(a, parent_rank);
  ASSERT_EQ(sub.size(), static_cast<int>(members.size()));
  const auto pos = std::find(members.begin(), members.end(), parent_rank) -
                   members.begin();
  EXPECT_EQ(sub.rank(), static_cast<int>(pos));
  for (int i = 0; i < sub.size(); ++i) {
    EXPECT_EQ(sub.world_rank_of(i),
              parent_world[static_cast<std::size_t>(
                  members[static_cast<std::size_t>(i)])])
        << "member " << i;
  }
}

class SplitSweep
    : public ::testing::TestWithParam<std::tuple<int, Scheme>> {};

TEST_P(SplitSweep, MatchesDirectReferenceNestedAndUnderAWindow) {
  const auto [n, scheme] = GetParam();
  const Args outer = make_args(scheme, n, 17u + static_cast<std::uint32_t>(n));
  std::vector<int> world(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) world[static_cast<std::size_t>(r)] = r;

  Runtime rt(n, test_machine());
  rt.run([&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    Comm group = c.split(outer.color[r], outer.key[r]);
    expect_matches(group, outer, c.rank(), world);

    // The sub-communicator's collectives span exactly its members.
    const std::vector<int> members = reference_group(outer, c.rank());
    int sum = 0;
    for (int m : members) sum += m;
    EXPECT_EQ(group.allreduce(c.world_rank(), Op::Sum), sum);

    // Nested split of the result: alternate halves, descending keys.
    Args inner;
    for (int i = 0; i < group.size(); ++i) {
      inner.color.push_back(i % 2);
      inner.key.push_back(-i);
    }
    std::vector<int> group_world;
    for (int i = 0; i < group.size(); ++i) {
      group_world.push_back(group.world_rank_of(i));
    }
    const auto g = static_cast<std::size_t>(group.rank());
    Comm pair = group.split(inner.color[g], inner.key[g]);
    expect_matches(pair, inner, group.rank(), group_world);

    // A window over the nested result reads each neighbour's world rank.
    int mine = c.world_rank();
    Window win(pair, MutableByteSpan(reinterpret_cast<std::byte*>(&mine),
                                     sizeof(mine)));
    const int next = (pair.rank() + 1) % pair.size();
    int got = -1;
    win.lock(next, LockType::Shared);
    win.get(MutableByteSpan(reinterpret_cast<std::byte*>(&got), sizeof(got)),
            next, 0);
    win.unlock(next);
    EXPECT_EQ(got, pair.world_rank_of(next));
    win.fence();
  });
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, Scheme>>& info) {
  static const char* const kNames[] = {"RandomDupKeys", "NegativeDescending",
                                       "OneColorSameKey"};
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += kNames[static_cast<int>(std::get<1>(info.param))];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SplitSweep,
    ::testing::Combine(::testing::Values(64, 257),
                       ::testing::Values(Scheme::RandomDupKeys,
                                         Scheme::NegativeDescending,
                                         Scheme::OneColorSameKey)),
    sweep_name);

}  // namespace
}  // namespace dds::simmpi
