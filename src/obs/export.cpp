#include "obs/export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

namespace parcore::obs {

namespace {

void append_metric_line(std::string& out, const std::string& name,
                        const std::string& labels, std::uint64_t v) {
  out += name;
  out += labels;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

}  // namespace

std::string prometheus_text(const Rows& rows) {
  std::string out;
  for (const auto& c : rows.counters) {
    out += "# TYPE " + c.name + " counter\n";
    append_metric_line(out, c.name, "", c.value);
  }
  for (const auto& g : rows.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name;
    out += ' ';
    out += std::to_string(g.value);
    out += '\n';
  }
  for (const auto& h : rows.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      acc += h.snap.counts[b];
      // Skip interior empty buckets but always keep +Inf; cumulative
      // counts stay correct because acc carries across skips.
      if (h.snap.counts[b] == 0 && b + 1 < Histogram::kBuckets) continue;
      const std::string le =
          b + 1 < Histogram::kBuckets
              ? std::to_string(Histogram::bucket_upper(b))
              : std::string("+Inf");
      append_metric_line(out, h.name + "_bucket", "{le=\"" + le + "\"}", acc);
    }
    append_metric_line(out, h.name + "_sum", "", h.snap.sum);
    append_metric_line(out, h.name + "_count", "", h.snap.count);
  }
  return out;
}

std::string human_summary(const Rows& rows) {
  std::ostringstream os;
  if (!rows.counters.empty() || !rows.gauges.empty()) {
    os << "metrics:\n";
    for (const auto& c : rows.counters)
      os << "  " << c.name << " = " << c.value << "\n";
    for (const auto& g : rows.gauges)
      os << "  " << g.name << " = " << g.value << "\n";
  }
  if (!rows.histograms.empty()) {
    os << "histograms (count / mean / ~p50 / ~p99):\n";
    for (const auto& h : rows.histograms) {
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.1f", h.snap.mean());
      // The last bucket is unbounded: print +Inf, not UINT64_MAX.
      auto upper = [&h](double q) {
        const std::uint64_t u = h.snap.quantile_upper(q);
        return u == std::numeric_limits<std::uint64_t>::max()
                   ? std::string("+Inf")
                   : std::to_string(u);
      };
      os << "  " << h.name << " = " << h.snap.count << " / " << mean
         << " / <=" << upper(0.5) << " / <=" << upper(0.99) << "\n";
    }
  }
  return os.str();
}

std::string trace_json_line(const FlushSpan& s) {
  std::string out = "{";
  auto field = [&out](const char* k, std::uint64_t v, bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += k;
    out += "\":";
    out += std::to_string(v);
  };
  field("epoch", s.epoch, true);
  field("raw", s.raw);
  field("inserts", s.inserts);
  field("removes", s.removes);
  field("pages_cloned", s.pages_cloned);
  field("repair_us", s.repair_us);
  field("drain_us", s.drain_us);
  field("coalesce_us", s.coalesce_us);
  field("wal_us", s.wal_us);
  field("apply_us", s.apply_us);
  field("om_compact_us", s.om_compact_us);
  field("publish_us", s.publish_us);
  field("checkpoint_us", s.checkpoint_us);
  field("flush_us", s.flush_us);
  field("workers", s.workers);
  field("worker_busy_us", s.worker_busy_us);
  field("worker_idle_us", s.worker_idle_us);
  field("deferred_edges", s.deferred_edges);
  field("adjacency_scanned", s.adjacency_scanned);
  field("adjacency_repartitions", s.adjacency_repartitions);
  out += '}';
  return out;
}

// ---------------------------------------------------------------- HTTP

bool MetricsHttpServer::start(int port, Supplier metrics, Supplier summary) {
  if (listen_fd_ >= 0) return false;  // already running
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);

  listen_fd_ = fd;
  metrics_ = std::move(metrics);
  summary_ = std::move(summary);
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void MetricsHttpServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsHttpServer::serve_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // 100 ms poll so stop() is observed promptly without pipes/signals.
    const int r = ::poll(&pfd, 1, 100);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    char buf[2048];
    const ssize_t got = ::recv(client, buf, sizeof buf - 1, 0);
    std::string body, status = "200 OK";
    if (got > 0) {
      buf[got] = '\0';
      // "GET <path> HTTP/1.x" — everything else is a 404/400.
      const char* path_begin = std::strchr(buf, ' ');
      const char* path_end =
          path_begin != nullptr ? std::strchr(path_begin + 1, ' ') : nullptr;
      std::string path = path_end != nullptr
                             ? std::string(path_begin + 1, path_end)
                             : std::string();
      if (path == "/metrics" || path == "/") {
        body = metrics_ ? metrics_() : "";
      } else if (path == "/summary") {
        body = summary_ ? summary_() : "";
      } else {
        status = "404 Not Found";
        body = "unknown path (try /metrics or /summary)\n";
      }
    } else {
      status = "400 Bad Request";
    }
    std::string resp = "HTTP/1.1 " + status +
                       "\r\nContent-Type: text/plain; version=0.0.4"
                       "\r\nConnection: close\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n = ::send(client, resp.data() + off, resp.size() - off, 0);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

std::string http_fetch(const std::string& host, int port,
                       const std::string& path, std::string* error) {
  auto fail = [error](const char* what) -> std::string {
    if (error != nullptr) *error = what;
    return "";
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("host must be an IPv4 address (or localhost)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return fail("connect failed (is `serve --metrics-port` running?)");
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + resolved +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return fail("send failed");
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = resp.find("\r\n\r\n");
  if (header_end == std::string::npos) return fail("malformed HTTP response");
  return resp.substr(header_end + 4);
}

}  // namespace parcore::obs
