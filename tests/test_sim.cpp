/** @file Unit tests for the simulation configuration (Table 1). */

#include <gtest/gtest.h>

#include "sim/config.hpp"

namespace paralog {
namespace {

TEST(SimConfig, Table1L2Sizing)
{
    // 2/4/8 MB L2 for 4/8/16 cores (Table 1).
    EXPECT_EQ(SimConfig::forAppThreads(1).l2.sizeBytes, 2ULL << 20);
    EXPECT_EQ(SimConfig::forAppThreads(2).l2.sizeBytes, 2ULL << 20);
    EXPECT_EQ(SimConfig::forAppThreads(4).l2.sizeBytes, 4ULL << 20);
    EXPECT_EQ(SimConfig::forAppThreads(8).l2.sizeBytes, 8ULL << 20);
}

TEST(SimConfig, Table1L1Parameters)
{
    SimConfig c = SimConfig::forAppThreads(4);
    EXPECT_EQ(c.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(c.l1d.lineBytes, 64u);
    EXPECT_EQ(c.l1d.assoc, 4u);
    EXPECT_EQ(c.l1d.hitLatency, 2u);
    EXPECT_EQ(c.memLatency, 90u);
    EXPECT_EQ(c.logBufferBytes, 64u * 1024);
}

TEST(SimConfig, CoreCountsByMode)
{
    SimConfig c = SimConfig::forAppThreads(4);
    c.mode = MonitorMode::kParallel;
    EXPECT_EQ(c.totalCores(), 8u);
    c.mode = MonitorMode::kTimesliced;
    EXPECT_EQ(c.totalCores(), 2u);
    c.mode = MonitorMode::kNoMonitoring;
    EXPECT_EQ(c.totalCores(), 4u);
}

TEST(SimConfig, DescribeMentionsKeyParameters)
{
    SimConfig c = SimConfig::forAppThreads(8);
    std::string d = c.describe();
    EXPECT_NE(d.find("64KB"), std::string::npos);
    EXPECT_NE(d.find("8MB"), std::string::npos);
    EXPECT_NE(d.find("90-cycle"), std::string::npos);
}

TEST(SimConfig, EnumNames)
{
    EXPECT_STREQ(toString(MemoryModel::kSC), "SC");
    EXPECT_STREQ(toString(MemoryModel::kTSO), "TSO");
    EXPECT_STREQ(toString(MonitorMode::kParallel), "parallel");
}

} // namespace
} // namespace paralog
