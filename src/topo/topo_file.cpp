#include "topo/topo_file.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace flexnet {

GraphTopology::Spec parse_topology_text(std::istream& in,
                                        const std::string& origin) {
  GraphTopology::Spec spec;
  spec.kind = TopoKind::File;
  spec.name = "file:" + origin;
  spec.nodes = -1;

  LineReader r(in, origin, kTopoFileMagic);
  while (r.next()) {
    const std::string keyword(r.field(0));
    if (keyword == "nodes") {
      if (spec.nodes >= 0) r.fail("duplicate nodes directive");
      r.expect(2, "nodes <count>");
      spec.nodes = static_cast<NodeId>(r.integer(1, 2, kMaxGraphNodes));
    } else if (keyword == "link" || keyword == "bilink") {
      if (spec.nodes < 0) r.fail("link before the nodes directive");
      if (r.size() != 3 && r.size() != 4) {
        r.fail("expected: " + keyword + " <src> <dst> [width=N]");
      }
      const auto a = static_cast<NodeId>(r.integer(1, 0, spec.nodes - 1));
      const auto b = static_cast<NodeId>(r.integer(2, 0, spec.nodes - 1));
      if (a == b) r.fail("self-loop at node " + std::to_string(a));
      int width = 1;
      if (r.size() == 4) {
        const std::string_view option = r.field(3);
        const auto value = option.substr(0, 6) == "width="
                               ? parse_int(option.substr(6), 1, 64)
                               : std::nullopt;
        if (!value) r.fail("bad link option: " + std::string(option));
        width = static_cast<int>(*value);
      }
      spec.links.push_back({a, b, width});
      if (keyword == "bilink") spec.links.push_back({b, a, width});
    } else {
      r.fail("unknown directive: " + keyword);
    }
  }
  if (spec.nodes < 0) r.fail("missing nodes directive");
  if (spec.links.empty()) r.fail("no links declared");

  // Duplicate detection happens here (not just in GraphTopology) so the
  // error carries the file origin; bilink over an existing link is the
  // classic authoring mistake.
  std::vector<TopoLink> sorted = spec.links;
  std::sort(sorted.begin(), sorted.end(),
            [](const TopoLink& x, const TopoLink& y) {
              return x.src != y.src ? x.src < y.src : x.dst < y.dst;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].src == sorted[i - 1].src && sorted[i].dst == sorted[i - 1].dst) {
      r.fail("duplicate link " + std::to_string(sorted[i].src) + "->" +
             std::to_string(sorted[i].dst));
    }
  }
  return spec;
}

GraphTopology::Spec load_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open topology file: " + path);
  return parse_topology_text(in, path);
}

std::string write_topology_text(const GraphTopology::Spec& spec) {
  std::vector<TopoLink> links = spec.links;
  std::sort(links.begin(), links.end(),
            [](const TopoLink& a, const TopoLink& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });

  std::string out;
  out += kTopoFileMagic;
  out += "\n# ";
  out += spec.name;
  out += "\nnodes " + std::to_string(spec.nodes) + "\n";

  const auto find_reverse = [&links](const TopoLink& link) {
    return std::find_if(links.begin(), links.end(), [&link](const TopoLink& r) {
      return r.src == link.dst && r.dst == link.src && r.width == link.width;
    });
  };
  std::vector<bool> emitted(links.size(), false);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (emitted[i]) continue;
    const TopoLink& link = links[i];
    std::string keyword = "link";
    if (link.src < link.dst) {
      const auto rev = find_reverse(link);
      if (rev != links.end() &&
          !emitted[static_cast<std::size_t>(rev - links.begin())]) {
        emitted[static_cast<std::size_t>(rev - links.begin())] = true;
        keyword = "bilink";
      }
    }
    out += keyword + " " + std::to_string(link.src) + " " +
           std::to_string(link.dst);
    if (link.width != 1) out += " width=" + std::to_string(link.width);
    out += "\n";
  }
  return out;
}

}  // namespace flexnet
