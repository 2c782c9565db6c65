#include "af/flow_control.h"

#include <gtest/gtest.h>

namespace oaf::af {
namespace {

TEST(FlowControlTest, StockTcpThreshold) {
  AfConfig cfg = AfConfig::stock_tcp();
  // <= 8 KiB in-capsule, above conservative (paper §4.4.2).
  EXPECT_TRUE(write_in_capsule(cfg, false, 4 * 1024));
  EXPECT_TRUE(write_in_capsule(cfg, false, 8 * 1024));
  EXPECT_FALSE(write_in_capsule(cfg, false, 8 * 1024 + 1));
  EXPECT_FALSE(write_in_capsule(cfg, false, 128 * 1024));
}

TEST(FlowControlTest, ShmFlowAlwaysInCapsule) {
  AfConfig cfg = AfConfig::oaf();
  EXPECT_TRUE(write_in_capsule(cfg, true, 4 * 1024));
  EXPECT_TRUE(write_in_capsule(cfg, true, 128 * 1024));
  EXPECT_TRUE(write_in_capsule(cfg, true, 512 * 1024));
}

TEST(FlowControlTest, ShmFlowNeedsChannel) {
  // Config asks for shm flow control but the channel is not connected
  // (remote client): falls back to stock rules.
  AfConfig cfg = AfConfig::oaf();
  EXPECT_TRUE(write_in_capsule(cfg, false, 4 * 1024));
  EXPECT_FALSE(write_in_capsule(cfg, false, 128 * 1024));
}

TEST(FlowControlTest, ConservativeModeOnShm) {
  // Ablation: shm channel present but flow-control optimization off.
  AfConfig cfg = AfConfig::oaf();
  cfg.flow_control = FlowControlMode::kConservative;
  EXPECT_FALSE(write_in_capsule(cfg, true, 128 * 1024));
}

TEST(FlowControlTest, ReadSuccessFlag) {
  AfConfig oaf_cfg = AfConfig::oaf();
  AfConfig stock = AfConfig::stock_tcp();
  EXPECT_TRUE(read_success_flag(oaf_cfg, true));
  EXPECT_FALSE(read_success_flag(oaf_cfg, false));
  EXPECT_FALSE(read_success_flag(stock, false));
  AfConfig conservative = AfConfig::oaf();
  conservative.flow_control = FlowControlMode::kConservative;
  EXPECT_FALSE(read_success_flag(conservative, true));
}

TEST(FlowControlTest, CustomThreshold) {
  AfConfig cfg = AfConfig::stock_tcp();
  cfg.in_capsule_threshold = 16 * 1024;
  EXPECT_TRUE(write_in_capsule(cfg, false, 16 * 1024));
  EXPECT_FALSE(write_in_capsule(cfg, false, 16 * 1024 + 1));
}

}  // namespace
}  // namespace oaf::af
