#include "tree/io.h"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/check.h"
#include "util/strings.h"

namespace itree {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Tree parse() {
    Tree tree;
    skip_whitespace();
    while (!at_end()) {
      parse_node(tree, kRoot);
      skip_whitespace();
    }
    return tree;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }

  char peek() const {
    require(!at_end(), "parse_tree: unexpected end of input");
    return text_[pos_];
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void expect(char ch) {
    if (at_end() || text_[pos_] != ch) {
      throw std::invalid_argument(std::string("parse_tree: expected '") + ch +
                                  "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      throw std::invalid_argument("parse_tree: expected a number at offset " +
                                  std::to_string(start));
    }
    const std::string token = text_.substr(start, pos_ - start);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_tree: malformed number '" + token +
                                  "' at offset " + std::to_string(start));
    }
    if (consumed != token.size()) {
      throw std::invalid_argument(
          "parse_tree: trailing characters in number '" + token +
          "' at offset " + std::to_string(start));
    }
    return value;
  }

  void parse_node(Tree& tree, NodeId parent) {
    skip_whitespace();
    expect('(');
    skip_whitespace();
    const double contribution = parse_number();
    const NodeId node = tree.add_node(parent, contribution);
    skip_whitespace();
    while (!at_end() && peek() == '(') {
      parse_node(tree, node);
      skip_whitespace();
    }
    expect(')');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Shortest decimal representation that parses back to the same double,
/// so serialization round-trips rewards bit-for-bit.
std::string round_trip_number(double value) {
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::stod(buffer) == value) {
      break;
    }
  }
  return buffer;
}

void append_node(const Tree& tree, NodeId u, std::string& out) {
  out += '(';
  out += round_trip_number(tree.contribution(u));
  for (NodeId child : tree.children(u)) {
    out += ' ';
    append_node(tree, child, out);
  }
  out += ')';
}

}  // namespace

Tree parse_tree(const std::string& text) { return Parser(text).parse(); }

std::string to_string(const Tree& tree) {
  std::string out;
  bool first = true;
  for (NodeId child : tree.children(kRoot)) {
    if (!first) {
      out += ' ';
    }
    first = false;
    append_node(tree, child, out);
  }
  return out;
}

std::string to_edge_list(const Tree& tree) {
  std::string out = "node,parent,contribution\n";
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    out += std::to_string(u) + ',' + std::to_string(tree.parent(u)) + ',' +
           round_trip_number(tree.contribution(u)) + '\n';
  }
  return out;
}

Tree parse_edge_list(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  require(static_cast<bool>(std::getline(in, line)),
          "parse_edge_list: empty input");
  require(line == "node,parent,contribution",
          "parse_edge_list: missing or wrong header");

  struct Row {
    NodeId parent;
    double contribution;
  };
  std::vector<Row> rows;  // indexed by node id - 1
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    unsigned long id = 0, parent = 0;
    double contribution = 0.0;
    char comma1 = 0, comma2 = 0;
    fields >> id >> comma1 >> parent >> comma2 >> contribution;
    if (fields.fail() || comma1 != ',' || comma2 != ',') {
      throw std::invalid_argument("parse_edge_list: malformed line " +
                                  std::to_string(line_number));
    }
    require(id >= 1, "parse_edge_list: node ids start at 1");
    if (parent >= id) {
      throw std::invalid_argument(
          "parse_edge_list: parent id must be smaller than the node's "
          "(line " +
          std::to_string(line_number) + ")");
    }
    if (rows.size() < id) {
      rows.resize(id, Row{kInvalidNode, 0.0});
    }
    if (rows[id - 1].parent != kInvalidNode) {
      throw std::invalid_argument("parse_edge_list: duplicate node id " +
                                  std::to_string(id));
    }
    rows[id - 1] = Row{static_cast<NodeId>(parent), contribution};
  }
  Tree tree;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].parent == kInvalidNode) {
      throw std::invalid_argument("parse_edge_list: missing node id " +
                                  std::to_string(i + 1));
    }
    tree.add_node(rows[i].parent, rows[i].contribution);
  }
  return tree;
}

std::string to_dot(const Tree& tree) {
  std::ostringstream out;
  out << "digraph referral_tree {\n  node [shape=circle];\n";
  out << "  n0 [label=\"root\", shape=box];\n";
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    out << "  n" << u << " [label=\"" << u << ":"
        << compact_number(tree.contribution(u)) << "\"];\n";
  }
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    out << "  n" << tree.parent(u) << " -> n" << u << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace itree
