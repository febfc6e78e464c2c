// Tests for IO: table/CSV output and checkpoint round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/grid_representation.hpp"
#include "io/checkpoint.hpp"
#include "io/table.hpp"
#include "models/zoo.hpp"

namespace apt::io {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Table, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2.5"});
  t.add_row({"3", "4.5"});
  const std::string path = temp_path("apt_table_test.csv");
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x,y");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5");
  std::filesystem::remove(path);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Checkpoint, RoundTripsParametersAndRunningStats) {
  Rng rng(1);
  auto net = models::make_mlp(4, {8}, 3, rng);
  // Push some training through so BN running stats are non-trivial.
  Tensor x(Shape{16, 4});
  rng.fill_normal(x, 0.5f, 2.0f);
  net->forward(x, true);

  const std::string path = temp_path("apt_ckpt_test.bin");
  ASSERT_TRUE(try_save_checkpoint(*net, path).ok());

  Rng rng2(999);  // different init
  auto restored = models::make_mlp(4, {8}, 3, rng2);
  ASSERT_TRUE(try_load_checkpoint(*restored, path).ok());

  // Outputs must now agree exactly in eval mode.
  Tensor probe(Shape{5, 4});
  rng.fill_normal(probe, 0, 1);
  const Tensor a = net->forward(probe, false);
  const Tensor b = restored->forward(probe, false);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  Rng rng(1);
  auto net = models::make_mlp(4, {8}, 3, rng);
  const std::string path = temp_path("apt_ckpt_mismatch.bin");
  ASSERT_TRUE(try_save_checkpoint(*net, path).ok());
  auto other = models::make_mlp(4, {16}, 3, rng);
  EXPECT_EQ(try_load_checkpoint(*other, path).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileRejected) {
  Rng rng(1);
  auto net = models::make_mlp(2, {4}, 2, rng);
  EXPECT_EQ(try_load_checkpoint(*net, "/nonexistent/apt.bin").code(),
            StatusCode::kIoError);
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = temp_path("apt_ckpt_garbage.bin");
  std::ofstream(path) << "not a checkpoint";
  Rng rng(1);
  auto net = models::make_mlp(2, {4}, 2, rng);
  EXPECT_EQ(try_load_checkpoint(*net, path).code(), StatusCode::kCorrupt);
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadingIntoQuantisedModelRefitsGrids) {
  Rng rng(1);
  auto net = models::make_mlp(4, {8}, 3, rng);
  const std::string path = temp_path("apt_ckpt_quant.bin");
  ASSERT_TRUE(try_save_checkpoint(*net, path).ok());

  Rng rng2(2);
  auto restored = models::make_mlp(4, {8}, 3, rng2);
  core::GridOptions go;
  go.bits = 8;
  core::attach_grid(*restored, go);
  ASSERT_TRUE(try_load_checkpoint(*restored, path).ok());

  // Values must be close to the checkpoint (within grid resolution) and
  // exactly on each parameter's grid.
  auto orig_params = net->parameters();
  auto rest_params = restored->parameters();
  ASSERT_EQ(orig_params.size(), rest_params.size());
  for (size_t i = 0; i < orig_params.size(); ++i) {
    const double eps = rest_params[i]->rep->epsilon();
    for (int64_t j = 0; j < orig_params[i]->numel(); ++j)
      EXPECT_NEAR(rest_params[i]->value[j], orig_params[i]->value[j],
                  eps * 1.01)
          << rest_params[i]->name;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace apt::io
