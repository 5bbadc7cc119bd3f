#include "core/factory.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/cdrm.h"
#include "core/geometric.h"
#include "core/l_transform.h"
#include "core/normalized.h"
#include "core/split_proof.h"
#include "core/tdrm.h"
#include "util/check.h"

namespace itree {

namespace {

double take(ParamMap& params, const std::string& key, double fallback) {
  const auto it = params.find(key);
  if (it == params.end()) {
    return fallback;
  }
  const double value = it->second;
  params.erase(it);
  return value;
}

void expect_consumed(const ParamMap& params, const std::string& name) {
  if (params.empty()) {
    return;
  }
  std::string unknown;
  for (const auto& [key, value] : params) {
    if (!unknown.empty()) {
      unknown += ", ";
    }
    unknown += key;
  }
  throw std::invalid_argument("make_mechanism: unknown parameter(s) for " +
                              name + ": " + unknown);
}

}  // namespace

ParamMap parse_param_string(const std::string& text) {
  ParamMap params;
  std::istringstream in(text);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    // Trim whitespace.
    const auto first = entry.find_first_not_of(" \t");
    const auto last = entry.find_last_not_of(" \t");
    if (first == std::string::npos) {
      continue;
    }
    entry = entry.substr(first, last - first + 1);
    const auto equals = entry.find('=');
    if (equals == std::string::npos || equals == 0) {
      throw std::invalid_argument(
          "parse_param_string: expected key=value, got '" + entry + "'");
    }
    const std::string key = entry.substr(0, equals);
    const std::string value = entry.substr(equals + 1);
    try {
      std::size_t consumed = 0;
      const double parsed = std::stod(value, &consumed);
      if (consumed != value.size()) {
        throw std::invalid_argument("parse_param_string: bad value in '" +
                                    entry + "'");
      }
      if (!params.emplace(key, parsed).second) {
        throw std::invalid_argument("parse_param_string: duplicate key '" +
                                    key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_param_string: bad value in '" +
                                  entry + "'");
    }
  }
  return params;
}

MechanismPtr make_mechanism(const std::string& name, const ParamMap& params,
                            BudgetParams budget) {
  ParamMap remaining = params;
  budget.Phi = take(remaining, "Phi", budget.Phi);
  budget.phi = take(remaining, "phi", budget.phi);

  MechanismPtr mechanism;
  if (name == "geometric") {
    const double a = take(remaining, "a", 0.5);
    const double b = take(remaining, "b", 0.2);
    mechanism = std::make_unique<GeometricMechanism>(budget, a, b);
  } else if (name == "l-luxor") {
    const double delta = take(remaining, "delta", 0.5);
    mechanism = std::make_unique<LLuxorMechanism>(budget, delta);
  } else if (name == "l-pachira") {
    const double beta = take(remaining, "beta", 0.2);
    const double delta = take(remaining, "delta", 2.0);
    mechanism = std::make_unique<LPachiraMechanism>(budget, beta, delta);
  } else if (name == "split-proof" || name == "splitproof") {
    const double b = take(remaining, "b", 0.1);
    const double lambda = take(remaining, "lambda", 0.35);
    mechanism = std::make_unique<SplitProofMechanism>(budget, b, lambda);
  } else if (name == "preliminary-tdrm") {
    const double a = take(remaining, "a", 0.5);
    const double b = take(remaining, "b", 0.2);
    mechanism = std::make_unique<PreliminaryTdrm>(budget, a, b);
  } else if (name == "norm-preliminary-tdrm") {
    const double a = take(remaining, "a", 0.5);
    const double b = take(remaining, "b", 0.2);
    mechanism = std::make_unique<NormalizedPreliminaryTdrm>(budget, a, b);
  } else if (name == "tdrm") {
    TdrmParams tdrm;
    tdrm.lambda = take(remaining, "lambda", tdrm.lambda);
    tdrm.mu = take(remaining, "mu", tdrm.mu);
    tdrm.a = take(remaining, "a", tdrm.a);
    tdrm.b = take(remaining, "b", tdrm.b);
    mechanism = std::make_unique<Tdrm>(budget, tdrm);
  } else if (name == "cdrm-1" || name == "cdrm1") {
    const double theta = take(remaining, "theta", 0.4);
    mechanism = std::make_unique<CdrmReciprocal>(budget, theta);
  } else if (name == "cdrm-2" || name == "cdrm2") {
    const double theta = take(remaining, "theta", 0.4);
    mechanism = std::make_unique<CdrmLogarithmic>(budget, theta);
  } else {
    throw std::invalid_argument("make_mechanism: unknown mechanism '" + name +
                                "'");
  }
  expect_consumed(remaining, name);
  return mechanism;
}

}  // namespace itree
