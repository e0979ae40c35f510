#include "analysis/heartbeat_math.hpp"

#include <cmath>
#include <limits>

#include "common/time.hpp"

namespace lbrm::analysis {

std::vector<double> variable_heartbeat_offsets(const HeartbeatConfig& config, double dt) {
    std::vector<double> offsets;
    const double h_min = to_seconds(config.h_min);
    const double h_max = to_seconds(config.h_max);

    double interval = h_min;
    double at = 0.0;
    while (true) {
        at += interval;
        if (at >= dt) break;  // preempted by the next data packet
        offsets.push_back(at);
        interval = std::min(interval * config.backoff, h_max);
        if (offsets.size() > 1'000'000) break;  // guard absurd parameters
    }
    return offsets;
}

std::size_t variable_heartbeat_count(const HeartbeatConfig& config, double dt) {
    return variable_heartbeat_offsets(config, dt).size();
}

std::size_t fixed_heartbeat_count(double h, double dt) {
    if (h <= 0.0 || dt <= h) return 0;
    // Largest k with k*h strictly before dt; nudge for exact multiples.
    const double k = std::ceil(dt / h - 1e-9) - 1.0;
    return k < 0.0 ? 0u : static_cast<std::size_t>(k);
}

double variable_heartbeat_rate(const HeartbeatConfig& config, double dt) {
    return static_cast<double>(variable_heartbeat_count(config, dt)) / dt;
}

double fixed_heartbeat_rate(double h, double dt) {
    return static_cast<double>(fixed_heartbeat_count(h, dt)) / dt;
}

double overhead_ratio(const HeartbeatConfig& config, double dt) {
    const auto variable = variable_heartbeat_count(config, dt);
    const auto fixed = fixed_heartbeat_count(to_seconds(config.h_min), dt);
    if (variable == 0)
        return fixed == 0 ? 1.0 : std::numeric_limits<double>::infinity();
    return static_cast<double>(fixed) / static_cast<double>(variable);
}

double overhead_ratio_continuous(const HeartbeatConfig& config, double dt) {
    const double h_min = to_seconds(config.h_min);
    const double b = config.backoff;
    if (dt <= h_min) return 1.0;
    const double fixed = dt / h_min;
    if (b <= 1.0) return 1.0;
    const double variable = std::log(1.0 + dt * (b - 1.0) / h_min) / std::log(b);
    return fixed / variable;
}

double scenario_heartbeat_rate(const HeartbeatConfig& config, double dt,
                               std::size_t entities) {
    return variable_heartbeat_rate(config, dt) * static_cast<double>(entities);
}

}  // namespace lbrm::analysis
