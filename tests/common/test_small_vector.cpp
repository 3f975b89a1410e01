#include "common/small_vector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace lidc {
namespace {

/// Elements with a heap buffer of their own, so a double destroy, a
/// leak or a read of a moved-from slot shows up under ASan.
std::vector<std::string> contents(const SmallVector<std::string, 2>& v) {
  return {v.begin(), v.end()};
}

TEST(SmallVectorTest, SpillsPastTheInlineRoomAndKeepsOrder) {
  SmallVector<std::string, 2> v;
  std::vector<std::string> expected;
  for (int i = 0; i < 9; ++i) {
    const std::string value(20, static_cast<char>('a' + i));
    v.push_back(value);
    expected.push_back(value);
    ASSERT_EQ(contents(v), expected);
  }
  EXPECT_EQ(v.front(), expected.front());
  EXPECT_EQ(v.back(), expected.back());
}

TEST(SmallVectorTest, GrowingFromOwnElementCopiesItFirst) {
  SmallVector<std::string, 2> v;
  v.push_back(std::string(20, 'x'));
  v.push_back(std::string(20, 'y'));
  v.push_back(v.front());  // the reference dies when the buffer moves
  EXPECT_EQ(contents(v), (std::vector<std::string>{std::string(20, 'x'),
                                                  std::string(20, 'y'),
                                                  std::string(20, 'x')}));
}

TEST(SmallVectorTest, CopiesAndMovesInlineAndSpilled) {
  for (const int count : {1, 2, 5}) {
    SmallVector<std::string, 2> source;
    for (int i = 0; i < count; ++i) source.push_back(std::string(20, 'a' + i));
    const std::vector<std::string> expected = contents(source);

    SmallVector<std::string, 2> copy(source);
    EXPECT_EQ(contents(copy), expected);
    SmallVector<std::string, 2> assigned;
    assigned.push_back("old");
    assigned = copy;
    EXPECT_EQ(contents(assigned), expected);

    SmallVector<std::string, 2> moved(std::move(copy));
    EXPECT_EQ(contents(moved), expected);
    EXPECT_TRUE(copy.empty());
    SmallVector<std::string, 2> moveAssigned;
    for (int i = 0; i < 3; ++i) moveAssigned.push_back("old");
    moveAssigned = std::move(moved);
    EXPECT_EQ(contents(moveAssigned), expected);
    EXPECT_TRUE(moved.empty());
    moved.push_back("reused");  // a moved-from vector is empty and usable
    EXPECT_EQ(contents(moved), std::vector<std::string>{"reused"});
  }
}

TEST(SmallVectorTest, EraseIfKeepsTheRestInOrder) {
  SmallVector<std::unique_ptr<int>, 2> v;
  for (int i = 0; i < 7; ++i) v.push_back(std::make_unique<int>(i));
  EXPECT_EQ(erase_if(v, [](const std::unique_ptr<int>& p) { return *p % 3 == 0; }), 3u);
  std::vector<int> left;
  for (const auto& p : v) left.push_back(*p);
  EXPECT_EQ(left, (std::vector<int>{1, 2, 4, 5}));
  v.clear();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace lidc
