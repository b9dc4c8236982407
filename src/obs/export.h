// Exporters over metric rows (obs::Rows) and the flush trace:
//   - prometheus_text: Prometheus text exposition (counters, gauges,
//     cumulative histogram buckets) for scrapers;
//   - human_summary:   the operator-facing grouped summary. serve,
//     stats --live and the bench drivers all render through this one
//     code path;
//   - trace_json_line: one flush span as a single JSON line (the
//     --trace-out / JSONL schema, docs/OBSERVABILITY.md);
//   - MetricsHttpServer / http_fetch: a minimal loopback HTTP 1.1
//     GET endpoint pair ("/metrics" exposition, "/summary" human text)
//     behind `parcore_cli serve --metrics-port` and `stats --live`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace parcore::obs {

std::string prometheus_text(const Rows& rows);

std::string human_summary(const Rows& rows);

std::string trace_json_line(const FlushSpan& span);

/// Minimal single-threaded HTTP server bound to 127.0.0.1. Each GET is
/// answered from the supplier registered for its path; unknown paths
/// get 404. Connections are serial (scrape endpoints see one client).
class MetricsHttpServer {
 public:
  using Supplier = std::function<std::string()>;

  MetricsHttpServer() = default;
  ~MetricsHttpServer() { stop(); }
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Serves "/metrics" from `metrics` and "/summary" from `summary`.
  /// `port` 0 binds an ephemeral port (read it back with port()).
  /// Returns false (with no thread spawned) if the socket setup fails.
  bool start(int port, Supplier metrics, Supplier summary);
  void stop();

  bool running() const { return listen_fd_ >= 0; }
  int port() const { return port_; }

 private:
  void serve_loop();

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Supplier metrics_;
  Supplier summary_;
};

/// Blocking loopback HTTP GET; returns the response body, or "" on any
/// connection/protocol failure (diagnostic goes to *error if non-null).
std::string http_fetch(const std::string& host, int port,
                       const std::string& path, std::string* error = nullptr);

}  // namespace parcore::obs
