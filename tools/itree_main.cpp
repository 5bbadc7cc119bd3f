// `itree` — command-line front end for the library.
//
// Subcommands:
//   rewards    compute rewards for a tree under a mechanism
//   check      run the full property matrix for a mechanism
//   attack     run the Sybil attack search against a scenario tree
//   dot        emit Graphviz for a tree
//   generate   emit a generated tree in the s-expression format
//   replay     rebuild a deployment from a saved event log
//   recover    rebuild a deployment from a storage data directory
//              (snapshot + WAL), read-only, and report its state
//   wal-dump   pretty-print / digest a WAL segment or data directory
//              (record types, sequence ranges, CRC status)
//
// Trees are read from --tree "<s-expr>" or from a file via --tree-file.
// Examples:
//   itree rewards --mechanism tdrm --tree "(5 (3 (4)) (2))"
//   itree generate --shape pa --nodes 50 --seed 7 > campaign.sexp
//   itree rewards --mechanism geometric --tree-file campaign.sexp --csv
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/factory.h"
#include "core/registry.h"
#include "mlm/campaign.h"
#include "server/event_log.h"
#include "storage/storage.h"
#include "util/bench_json.h"
#include "properties/matrix.h"
#include "properties/sybil_search.h"
#include "tree/generators.h"
#include "tree/io.h"
#include "tree/metrics.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace itree;

/// Builds the mechanism from --mechanism and the optional --params
/// key=value list; prints the error and returns null on failure.
MechanismPtr mechanism_from_args(const ArgParser& args,
                                 const std::string& fallback) {
  try {
    return make_mechanism(args.get_or("--mechanism", fallback),
                          parse_param_string(args.get_or("--params", "")));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what()
              << "\n(mechanisms: geometric, l-luxor, l-pachira, split-proof,"
                 " preliminary-tdrm,\n norm-preliminary-tdrm, tdrm, cdrm-1,"
                 " cdrm-2; params e.g. --params \"a=0.4,b=0.2\")\n";
    return nullptr;
  }
}

std::optional<Tree> load_tree(const ArgParser& args) {
  if (const auto text = args.get("--tree")) {
    return parse_tree(*text);
  }
  if (const auto path = args.get("--tree-file")) {
    std::ifstream in(*path);
    if (!in) {
      std::cerr << "cannot open " << *path << '\n';
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_tree(buffer.str());
  }
  std::cerr << "need --tree or --tree-file\n";
  return std::nullopt;
}

int cmd_rewards(const ArgParser& args) {
  const MechanismPtr mechanism = mechanism_from_args(args, "tdrm");
  if (!mechanism) {
    return 1;
  }
  const auto tree = load_tree(args);
  if (!tree) {
    return 1;
  }
  const RewardVector rewards = mechanism->compute(*tree);

  if (args.has("--csv")) {
    CsvWriter csv(std::cout);
    csv.row({"node", "contribution", "reward", "payment", "profit"});
    for (NodeId u = 1; u < tree->node_count(); ++u) {
      csv.row({std::to_string(u), compact_number(tree->contribution(u)),
               compact_number(rewards[u], 9),
               compact_number(payment(*tree, rewards, u), 9),
               compact_number(profit(*tree, rewards, u), 9)});
    }
    return 0;
  }
  TextTable table({"node", "C(u)", "R(u)", "Pay(u)", "P(u)"});
  for (NodeId u = 1; u < tree->node_count(); ++u) {
    table.add_row({std::to_string(u), compact_number(tree->contribution(u)),
                   TextTable::num(rewards[u], 4),
                   TextTable::num(payment(*tree, rewards, u), 4),
                   TextTable::num(profit(*tree, rewards, u), 4)});
  }
  std::cout << mechanism->display_name() << " on "
            << to_string(compute_metrics(*tree)) << '\n'
            << table.to_string() << "R(T) = "
            << compact_number(total_reward(rewards), 6)
            << "  (budget cap " <<
      compact_number(mechanism->Phi() * tree->total_contribution(), 6)
            << ")\n";
  return 0;
}

int cmd_check(const ArgParser& args) {
  if (args.has("--all")) {
    const std::vector<MatrixRow> rows = run_matrix(all_feasible_mechanisms());
    std::cout << render_matrix(rows) << '\n'
              << render_evidence(rows, args.has("--verbose"));
    return 0;
  }
  const MechanismPtr mechanism = mechanism_from_args(args, "tdrm");
  if (!mechanism) {
    return 1;
  }
  const MatrixRow row = run_all_checks(*mechanism);
  std::cout << render_matrix({row}) << '\n'
            << render_evidence({row}, args.has("--verbose"));
  return 0;
}

int cmd_attack(const ArgParser& args) {
  const MechanismPtr mechanism = mechanism_from_args(args, "geometric");
  if (!mechanism) {
    return 1;
  }
  SybilScenario scenario;
  scenario.label = "cli";
  if (args.has("--tree") || args.has("--tree-file")) {
    const auto tree = load_tree(args);
    if (!tree) {
      return 1;
    }
    scenario.base = *tree;
  }
  scenario.contribution = args.get_double_or("--contribution", 2.0);
  scenario.join_parent =
      static_cast<NodeId>(args.get_int_or("--join-parent", 0));
  const bool generalized = args.has("--generalized");
  const AttackOutcome outcome =
      search_attacks(*mechanism, scenario, generalized);
  std::cout << "honest reward " << compact_number(outcome.honest_reward, 6)
            << ", honest profit " << compact_number(outcome.honest_profit, 6)
            << '\n'
            << "best attack reward " << compact_number(outcome.best_reward, 6)
            << " via " << outcome.best_reward_config.to_string() << '\n'
            << "best attack profit " << compact_number(outcome.best_profit, 6)
            << " via " << outcome.best_profit_config.to_string() << '\n'
            << (outcome.best_profit > outcome.honest_profit + 1e-9
                    ? "=> attack PROFITABLE\n"
                    : "=> attacks do not pay\n");
  return 0;
}

int cmd_dot(const ArgParser& args) {
  const auto tree = load_tree(args);
  if (!tree) {
    return 1;
  }
  std::cout << to_dot(*tree);
  return 0;
}

int cmd_generate(const ArgParser& args) {
  Rng rng(static_cast<std::uint64_t>(args.get_int_or("--seed", 42)));
  const auto nodes =
      static_cast<std::size_t>(args.get_int_or("--nodes", 30));
  const std::string shape = args.get_or("--shape", "rrt");
  const std::string model = args.get_or("--contributions", "unit");
  ContributionSampler sampler = fixed_contribution(1.0);
  if (model == "uniform") {
    sampler = uniform_contribution(0.1, 5.0);
  } else if (model == "lognormal") {
    sampler = lognormal_contribution(0.0, 1.0);
  } else if (model == "pareto") {
    sampler = capped_contribution(pareto_contribution(0.5, 1.5), 50.0);
  } else if (model != "unit") {
    std::cerr << "unknown contribution model\n";
    return 1;
  }
  Tree tree;
  if (shape == "rrt") {
    tree = random_recursive_tree(nodes, sampler, rng);
  } else if (shape == "pa") {
    tree = preferential_attachment_tree(nodes, sampler, rng);
  } else if (shape == "chain") {
    tree = make_chain(nodes, 1.0);
  } else if (shape == "star") {
    tree = make_star(nodes, 1.0, 1.0);
  } else {
    std::cerr << "unknown shape (rrt, pa, chain, star)\n";
    return 1;
  }
  std::cout << to_string(tree) << '\n';
  return 0;
}

int cmd_replay(const ArgParser& args) {
  // `itree replay <logfile> [mechanism]` — the mechanism may also come
  // from --mechanism; re-pricing a saved deployment under a different
  // mechanism is the point of event sourcing.
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "usage: itree replay <logfile> [mechanism]\n";
    return 2;
  }
  MechanismPtr mechanism;
  try {
    mechanism = make_mechanism(
        positional.size() >= 3 ? positional[2]
                               : args.get_or("--mechanism", "geometric"),
        parse_param_string(args.get_or("--params", "")));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  const EventLog log = EventLog::load(positional[1]);
  const RewardService service = log.replay(*mechanism);
  std::cout << "replayed " << log.size() << " events under "
            << mechanism->display_name() << '\n'
            << "participants " << service.tree().participant_count()
            << ", total contribution "
            << compact_number(service.tree().total_contribution(), 6)
            << '\n'
            << "total reward "
            << compact_number(service.total_reward(), 6)
            << ", audit divergence " << shortest_number(service.audit())
            << '\n';
  if (args.has("--digest")) {
    std::cout << "rewards digest "
              << digest_hex(fnv1a64(hex_doubles(service.rewards()))) << '\n';
  }
  return 0;
}

int cmd_recover(const ArgParser& args) {
  // `itree recover <data-dir> [--export <dir>] [--digest]` — offline,
  // read-only recovery: the data directory is never modified (a torn
  // WAL tail is skipped in memory, not truncated on disk). The
  // mechanism comes from the directory's MANIFEST, no flags needed.
  // --export writes each campaign as its compacted log (one join per
  // participant, EventLog::from_tree), which replays to the same tree.
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "usage: itree recover <data-dir> [--export <dir>] "
                 "[--digest]\n";
    return 2;
  }
  const std::string& dir = positional[1];
  const storage::Manifest manifest = storage::read_manifest(dir);
  const MechanismPtr mechanism =
      make_mechanism(manifest.mechanism_name,
                     parse_param_string(manifest.mechanism_params));
  const double start = monotonic_seconds();
  const storage::RecoveryResult recovered =
      storage::recover_campaigns(*mechanism, manifest.campaigns, dir);
  const double elapsed = monotonic_seconds() - start;

  for (const std::string& warning : recovered.report.warnings) {
    std::cout << "recovery warning: " << warning << '\n';
  }
  std::cout << "recovered " << manifest.campaigns << " campaign(s) of "
            << mechanism->display_name() << " from " << dir << " in "
            << compact_number(elapsed * 1e3, 3) << " ms\n"
            << "snapshot seq " << recovered.report.snapshot_seq
            << ", WAL tail records " << recovered.report.tail_records
            << ", segments scanned " << recovered.report.segments_scanned
            << ", torn bytes " << recovered.report.truncated_bytes << ", "
            << storage::stage_seconds_text(recovered.report) << '\n';
  for (std::size_t c = 0; c < recovered.campaigns.size(); ++c) {
    const RewardService& service = recovered.campaigns[c]->service();
    // Same line shape and digest rendering as itree-loadgen, so crash
    // smoke scripts can compare the two outputs directly.
    std::cout << "campaign " << c << ": participants "
              << service.tree().participant_count() << ", events "
              << service.events_applied() << ", total reward "
              << compact_number(service.total_reward(), 6) << ", audit "
              << shortest_number(service.audit()) << ", rewards digest "
              << digest_hex(fnv1a64(hex_doubles(service.rewards())))
              << '\n';
  }
  if (const auto export_dir = args.get("--export")) {
    std::filesystem::create_directories(*export_dir);
    for (std::size_t c = 0; c < recovered.campaigns.size(); ++c) {
      const std::string path =
          *export_dir + "/campaign_" + std::to_string(c) + ".log";
      EventLog::from_tree(recovered.campaigns[c]->service().tree())
          .save(path);
      std::cout << "exported campaign " << c << " -> " << path << '\n';
    }
  }
  return 0;
}

int cmd_wal_dump(const ArgParser& args) {
  // `itree wal-dump <segment-or-data-dir> [--verbose]` — offline,
  // read-only WAL inspection: per segment the record count, sequence
  // range, event mix and CRC status (clean, or where and why scanning
  // stopped), plus a digest over the encoded durable history — the
  // same fnv1a64 convention the reward digests use, so two WALs can be
  // compared with one line of shell (e.g. a primary against a replica
  // after the replication stream drained). --verbose prints every
  // record.
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "usage: itree wal-dump <segment-or-data-dir> "
                 "[--verbose]\n";
    return 2;
  }
  const std::string& target = positional[1];
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::string dir;
  if (std::filesystem::is_directory(target)) {
    dir = target;
    segments = storage::list_wal_segments(target);
    if (segments.empty()) {
      std::cout << "no wal-*.log segments in " << target << '\n';
      return 0;
    }
  } else {
    segments.emplace_back(0, target);
  }

  const bool verbose = args.has("--verbose");
  std::uint64_t total_records = 0;
  std::uint64_t joins = 0;
  std::uint64_t contributions = 0;
  std::string digest_input;  // every valid record's on-disk encoding
  bool all_clean = true;
  for (const auto& [first_seq, name] : segments) {
    const std::string path = dir.empty() ? name : dir + "/" + name;
    const storage::WalScan scan = storage::scan_wal_file(path);
    std::cout << path << ": " << scan.records.size() << " record(s)";
    if (!scan.records.empty()) {
      std::cout << ", seq " << scan.records.front().seq << ".."
                << scan.records.back().seq;
    }
    std::cout << ", " << scan.valid_bytes << " valid byte(s), "
              << (scan.clean ? "clean"
                             : "TORN (" + scan.truncation_reason + ")")
              << '\n';
    all_clean = all_clean && scan.clean;
    for (const storage::WalRecord& record : scan.records) {
      ++total_records;
      digest_input += storage::encode_wal_record(record);
      const bool is_join = std::holds_alternative<JoinEvent>(record.event);
      is_join ? ++joins : ++contributions;
      if (verbose) {
        std::cout << "  @" << record.seq << " campaign " << record.campaign;
        if (is_join) {
          const auto& join = std::get<JoinEvent>(record.event);
          std::cout << " J referrer " << join.referrer << " amount "
                    << compact_number(join.initial_contribution, 6);
        } else {
          const auto& contribute = std::get<ContributeEvent>(record.event);
          std::cout << " C participant " << contribute.participant
                    << " amount "
                    << compact_number(contribute.amount, 6);
        }
        std::cout << '\n';
      }
    }
  }
  std::cout << "total " << total_records << " record(s) (" << joins
            << " join(s), " << contributions << " contribution(s)) over "
            << segments.size() << " segment(s), "
            << (all_clean ? "all clean" : "TORN TAIL") << '\n'
            << "wal digest " << digest_hex(fnv1a64(digest_input)) << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace itree;
  ArgParser args;
  args.add_flag("--mechanism", "geometric | l-luxor | l-pachira | "
                "split-proof | preliminary-tdrm | norm-preliminary-tdrm | "
                "tdrm | cdrm-1 | cdrm-2");
  args.add_flag("--params",
                "mechanism parameters, e.g. \"a=0.4,b=0.2\" or "
                "\"lambda=0.3,mu=0.5,Phi=0.6\"");
  args.add_flag("--tree", "tree in s-expression form, e.g. \"(5 (3) (2))\"");
  args.add_flag("--tree-file", "file containing the s-expression");
  args.add_flag("--csv", "emit CSV instead of a table", false);
  args.add_flag("--all", "check all mechanisms (check)", false);
  args.add_flag("--verbose", "verbose evidence output", false);
  args.add_flag("--generalized", "allow contribution-increasing attacks",
                false);
  args.add_flag("--contribution", "attacker contribution (attack)");
  args.add_flag("--join-parent", "attacker join point node id (attack)");
  args.add_flag("--seed", "generator seed (generate)");
  args.add_flag("--nodes", "generated tree size (generate)");
  args.add_flag("--shape", "rrt | pa | chain | star (generate)");
  args.add_flag("--contributions",
                "unit | uniform | lognormal | pareto (generate)");
  args.add_flag("--threads",
                "worker threads for check/attack (default: hardware; "
                "results are identical at any count)");
  args.add_flag("--digest",
                "print the fnv1a64 rewards digest (replay, recover)", false);
  args.add_flag("--export",
                "write each recovered campaign as a compacted event log to "
                "this directory (recover)");

  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n';
    return 2;
  }
  if (args.positional().empty()) {
    std::cout << args.help(
        "itree <rewards|check|attack|dot|generate|replay|recover|"
        "wal-dump> [flags]\n"
        "Incentive Tree mechanisms (Lv & Moscibroda, PODC'13) toolbox.");
    return 0;
  }
  const std::string& command = args.positional().front();
  try {
    const std::int64_t threads = args.get_int_or("--threads", 0);
    if (threads < 0) {
      std::cerr << "error: --threads must be >= 0 (0 = hardware), got "
                << threads << '\n';
      return 2;
    }
    set_thread_count(static_cast<std::size_t>(threads));
    if (command == "rewards") {
      return cmd_rewards(args);
    }
    if (command == "check") {
      return cmd_check(args);
    }
    if (command == "attack") {
      return cmd_attack(args);
    }
    if (command == "dot") {
      return cmd_dot(args);
    }
    if (command == "generate") {
      return cmd_generate(args);
    }
    if (command == "replay") {
      return cmd_replay(args);
    }
    if (command == "recover") {
      return cmd_recover(args);
    }
    if (command == "wal-dump") {
      return cmd_wal_dump(args);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
