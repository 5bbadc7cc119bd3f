#include "server/event_log.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "util/check.h"
#include "util/strings.h"

namespace itree {
namespace {

[[noreturn]] void bad_line(const std::string& why, std::size_t line_number,
                           const std::string& line) {
  throw std::invalid_argument("EventLog::parse: " + why + " on line " +
                              std::to_string(line_number) + ": '" + line +
                              "'");
}

/// Strict whole-token u64: rejects empty, signs, and trailing characters
/// (istringstream would silently accept "3x" as 3).
bool parse_u64(const std::string& token, unsigned long long* out) {
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(token.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool parse_f64(const std::string& token, double* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0';
}

void parse_line(const std::string& line, std::size_t line_number,
                EventLog& log,
                std::unordered_set<unsigned long long>& seen_ids) {
  std::istringstream fields(line);
  std::vector<std::string> tokens;
  std::string token;
  while (fields >> token) {
    tokens.push_back(token);
  }
  std::size_t next = 0;
  if (!tokens.empty() && tokens[0][0] == '@') {
    unsigned long long event_id = 0;
    if (!parse_u64(tokens[0].substr(1), &event_id)) {
      bad_line("malformed event id '" + tokens[0] + "'", line_number, line);
    }
    if (!seen_ids.insert(event_id).second) {
      bad_line("duplicate event id '" + tokens[0] + "'", line_number, line);
    }
    next = 1;
  }
  if (tokens.size() - next != 3) {
    bad_line(tokens.size() - next < 3 ? "missing fields" : "trailing garbage",
             line_number, line);
  }
  const std::string& kind = tokens[next];
  unsigned long long id = 0;
  double value = 0.0;
  if (!parse_u64(tokens[next + 1], &id) || id > kInvalidNode) {
    bad_line("malformed participant id '" + tokens[next + 1] + "'",
             line_number, line);
  }
  if (!parse_f64(tokens[next + 2], &value)) {
    bad_line("malformed amount '" + tokens[next + 2] + "'", line_number, line);
  }
  if (kind == "J") {
    log.append(JoinEvent{static_cast<NodeId>(id), value});
  } else if (kind == "C") {
    log.append(ContributeEvent{static_cast<NodeId>(id), value});
  } else {
    bad_line("unknown event kind '" + kind + "'", line_number, line);
  }
}

EventLog parse_stream(std::istream& in) {
  EventLog log;
  std::unordered_set<unsigned long long> seen_ids;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // A `#` starts a comment that runs to end of line, whether the
    // line starts with it or an event precedes it.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      parse_line(line, line_number, log, seen_ids);
    }
  }
  return log;
}

}  // namespace

namespace {

void write_event(std::ostream& out, const Event& event) {
  if (const auto* join = std::get_if<JoinEvent>(&event)) {
    out << "J " << join->referrer << ' ' << join->initial_contribution
        << '\n';
  } else {
    const auto& contribute = std::get<ContributeEvent>(event);
    out << "C " << contribute.participant << ' ' << contribute.amount << '\n';
  }
}

}  // namespace

void EventLog::write(std::ostream& out) const {
  const auto precision = out.precision(17);
  for (const Event& event : events_) {
    write_event(out, event);
  }
  out.precision(precision);
}

std::string EventLog::serialize() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

EventLog EventLog::parse(const std::string& text) {
  std::istringstream in(text);
  return parse_stream(in);
}

void EventLog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("EventLog::save: cannot open " + path);
  }
  out << "# itree event log, " << events_.size() << " events\n";
  const auto precision = out.precision(17);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << '@' << i << ' ';
    write_event(out, events_[i]);
  }
  out.precision(precision);
  out.flush();
  if (!out) {
    throw std::runtime_error("EventLog::save: write failed for " + path);
  }
}

EventLog EventLog::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("EventLog::load: cannot open " + path);
  }
  return parse_stream(in);
}

RewardService EventLog::replay(const Mechanism& mechanism) const {
  RewardService service(mechanism);
  for (const Event& event : events_) {
    service.apply(event);
  }
  return service;
}

EventLog EventLog::from_tree(const Tree& tree) {
  EventLog log;
  log.events_.reserve(tree.node_count() - 1);
  // Ids are assigned sequentially by the apply path and parents always
  // precede children in the arena, so one join per participant in id
  // order replays back to the identical tree.
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    log.append(JoinEvent{tree.parent(u), tree.contribution(u)});
  }
  return log;
}

}  // namespace itree
