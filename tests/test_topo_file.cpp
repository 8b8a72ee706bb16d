#include "topo/topo_file.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "topo/generators.hpp"
#include "topo/graph_topology.hpp"

namespace flexnet {
namespace {

GraphTopology::Spec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_topology_text(in, "test");
}

TEST(TopoFile, ParsesWellFormedFile) {
  const auto spec = parse(
      "flexnet-topo-v1\n"
      "# a 4-node ring with one wide chord\n"
      "nodes 4\n"
      "\n"
      "bilink 0 1\n"
      "bilink 1 2\n"
      "bilink 2 3\n"
      "bilink 3 0\n"
      "link 0 2 width=2\n"
      "link 2 0 width=2\n");
  EXPECT_EQ(spec.nodes, 4);
  EXPECT_EQ(spec.links.size(), 10u);  // 4 bilinks -> 8 + 2 directed
  const GraphTopology topo(spec);
  EXPECT_EQ(topo.min_distance(0, 2), 1);
  int wide = 0;
  for (const ChannelDesc& ch : topo.channels()) {
    if (ch.width == 2) ++wide;
  }
  EXPECT_EQ(wide, 2);
}

TEST(TopoFile, GoldenRejects) {
  // Each malformed input must fail loud with std::runtime_error; the
  // parser never silently repairs or truncates.
  const char* bad[] = {
      // wrong magic
      "flexnet-topo-v2\nnodes 2\nbilink 0 1\n",
      // empty file (no magic at all)
      "",
      // truncated: magic only, no nodes declaration
      "flexnet-topo-v1\n",
      // truncated: nodes but an unfinished link line
      "flexnet-topo-v1\nnodes 2\nlink 0\n",
      // link before nodes
      "flexnet-topo-v1\nlink 0 1\nnodes 2\n",
      // duplicate nodes declaration
      "flexnet-topo-v1\nnodes 2\nnodes 2\nbilink 0 1\n",
      // dangling node id
      "flexnet-topo-v1\nnodes 2\nbilink 0 1\nlink 0 7\n",
      // negative node id
      "flexnet-topo-v1\nnodes 2\nbilink 0 -1\n",
      // self loop
      "flexnet-topo-v1\nnodes 2\nbilink 0 1\nlink 1 1\n",
      // duplicate link (bilink already added 1->0)
      "flexnet-topo-v1\nnodes 2\nbilink 0 1\nlink 1 0\n",
      // unknown directive
      "flexnet-topo-v1\nnodes 2\nbilink 0 1\nedge 0 1\n",
      // trailing garbage after a valid link
      "flexnet-topo-v1\nnodes 2\nbilink 0 1 extra\n",
      // malformed width
      "flexnet-topo-v1\nnodes 2\nbilink 0 1 width=zero\n",
      // zero width
      "flexnet-topo-v1\nnodes 2\nbilink 0 1 width=0\n",
      // zero nodes
      "flexnet-topo-v1\nnodes 0\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)GraphTopology(parse(text)), std::runtime_error)
        << "accepted: " << text;
  }
}

TEST(TopoFile, DisconnectedGraphRejectedAtBuild) {
  const auto spec = parse(
      "flexnet-topo-v1\nnodes 4\nbilink 0 1\nbilink 2 3\n");
  EXPECT_THROW((void)GraphTopology(spec), std::invalid_argument);
}

TEST(TopoFile, ErrorsNameTheOriginAndLine) {
  try {
    (void)parse("flexnet-topo-v1\nnodes 2\nlink 0 7\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("test:3"), std::string::npos)
        << e.what();
  }
}

TEST(TopoFile, WriteParseRoundTripPreservesContentHash) {
  for (const auto& spec :
       {full_mesh_spec(6), dragonfly_spec(4, 1),
        random_irregular_spec(16, 3, 5)}) {
    const GraphTopology original(spec);
    const GraphTopology reparsed(parse(write_topology_text(spec)));
    EXPECT_EQ(original.content_hash(), reparsed.content_hash())
        << spec.name;
  }
}

TEST(TopoFile, WriterCollapsesAntiparallelPairsToBilinks) {
  const std::string text = write_topology_text(full_mesh_spec(4));
  EXPECT_EQ(text.find("\nlink "), std::string::npos)
      << "expected only bilink lines:\n" << text;
  EXPECT_NE(text.find("\nbilink "), std::string::npos);
}

TEST(TopoFile, OneWayLinksSurviveTheRoundTrip) {
  const auto spec = parse(
      "flexnet-topo-v1\nnodes 3\nlink 0 1\nlink 1 2\nlink 2 0\n");
  const GraphTopology ring(spec);
  EXPECT_EQ(ring.min_distance(0, 2), 2);  // no reverse links
  const GraphTopology reparsed(parse(write_topology_text(spec)));
  EXPECT_EQ(ring.content_hash(), reparsed.content_hash());
}

}  // namespace
}  // namespace flexnet
