#include "ir/plan_ir.h"

#include <cstdint>

namespace trac {

namespace {

constexpr std::string_view kTempPrefix = "sys_temp_";

char ProvenanceChar(ColumnProvenance p) {
  return p == ColumnProvenance::kDataSource ? 'd' : 'r';
}

[[nodiscard]] Result<ColumnProvenance> ParseProvenance(std::string_view s) {
  if (s == "d") return ColumnProvenance::kDataSource;
  if (s == "r") return ColumnProvenance::kRegular;
  return Status::ParseError("bad provenance class '" + std::string(s) +
                            "' (want 'r' or 'd')");
}

/// Splits `s` on `sep`, keeping empty pieces (a trailing sep would be a
/// syntax error surfaced by the piece parser).
std::vector<std::string> SplitOn(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

[[nodiscard]] Result<uint64_t> ParseU64(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty number");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::ParseError("bad number '" + std::string(s) + "'");
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

std::string HexU64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (size_t i = 0; i < 16; ++i) {
    out[15 - i] = digits[(v >> (i * 4)) & 0xF];
  }
  return out;
}

[[nodiscard]] Result<uint64_t> ParseHex64(std::string_view s) {
  if (s.empty() || s.size() > 16) {
    return Status::ParseError("bad hex number '" + std::string(s) + "'");
  }
  uint64_t v = 0;
  for (char c : s) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return Status::ParseError("bad hex number '" + std::string(s) + "'");
    }
    v = (v << 4) | digit;
  }
  return v;
}

}  // namespace

std::string_view IrNodeKindToString(IrNodeKind kind) {
  switch (kind) {
    case IrNodeKind::kScan:
      return "scan";
    case IrNodeKind::kFilter:
      return "filter";
    case IrNodeKind::kJoin:
      return "join";
    case IrNodeKind::kAggregate:
      return "agg";
    case IrNodeKind::kMerge:
      return "merge";
    case IrNodeKind::kTempWrite:
      return "tempwrite";
    case IrNodeKind::kReport:
      return "report";
  }
  return "?";
}

bool IsTempTableName(std::string_view name) {
  return name.size() > kTempPrefix.size() &&
         name.compare(0, kTempPrefix.size(), kTempPrefix) == 0;
}

IrNode& PlanIr::Add(IrNodeKind kind) {
  IrNode node;
  node.id = nodes.size();
  node.kind = kind;
  nodes.push_back(std::move(node));
  return nodes.back();
}

std::string PlanIr::Dump() const {
  std::string out = "ir " + label + "\n";
  for (const IrNode& n : nodes) {
    out += "node " + std::to_string(n.id) + " " +
           std::string(IrNodeKindToString(n.kind));
    if (!n.inputs.empty()) {
      out += " in=";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(n.inputs[i]);
      }
    }
    if (!n.table.empty()) out += " table=" + n.table;
    if (n.kind == IrNodeKind::kScan) {
      out += " snap=" + std::to_string(n.snapshot);
      if (n.num_shards != 1) {
        out += " shard=" + std::to_string(n.shard) + "/" +
               std::to_string(n.num_shards);
      }
      if (n.preexisting_temp) out += " pre";
      if (n.has_rows) out += " rows=" + std::to_string(n.rows);
      if (n.has_age) {
        out += " age=" + std::to_string(n.age_lo) + ".." +
               std::to_string(n.age_hi);
      }
    }
    if (n.kind == IrNodeKind::kFilter) {
      if (n.sel_zero) out += " sel=zero";
      if (n.has_pred) out += " pred=" + HexU64(n.pred_fingerprint);
    }
    if (!n.keys.empty()) {
      out += " key=";
      for (size_t i = 0; i < n.keys.size(); ++i) {
        if (i != 0) out += ',';
        out += ProvenanceChar(n.keys[i].probe);
        out += '-';
        out += ProvenanceChar(n.keys[i].build);
        if (n.keys[i].relevance) out += '*';
      }
    }
    if (!n.aggs.empty()) {
      out += " fns=";
      for (size_t i = 0; i < n.aggs.size(); ++i) {
        if (i != 0) out += ',';
        out += n.aggs[i].fn;
        out += ':';
        out += ProvenanceChar(n.aggs[i].arg);
      }
    }
    if (!n.declared_sources.empty()) {
      out += " src=";
      for (size_t i = 0; i < n.declared_sources.size(); ++i) {
        if (i != 0) out += ',';
        out += n.declared_sources[i];
      }
    }
    if (n.set_merge) out += " set";
    if (n.sorted) out += " sorted";
    if (n.session != 0) out += " session=" + std::to_string(n.session);
    if (n.has_bound) {
      out += " bound=" + std::to_string(n.notice_bound_micros);
    }
    if (n.generated) out += " gen";
    if (n.has_actual_rows) {
      out += " actual_rows=" + std::to_string(n.actual_rows);
    }
    if (n.has_actual_ns) out += " actual_ns=" + std::to_string(n.actual_ns);
    if (!n.columns.empty()) {
      out += " cols=";
      for (size_t i = 0; i < n.columns.size(); ++i) {
        if (i != 0) out += ',';
        out += n.columns[i].name;
        out += ':';
        out += ProvenanceChar(n.columns[i].provenance);
      }
    }
    out += "\n";
  }
  return out;
}

[[nodiscard]] Result<PlanIr> ParsePlanIr(std::string_view text) {
  PlanIr ir;
  bool saw_header = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    // Trim trailing CR and surrounding spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line.front() == '#') continue;

    auto err = [&](const std::string& msg) {
      return Status::ParseError("plan IR line " + std::to_string(line_no) +
                                ": " + msg);
    };
    // Value-parse helpers that re-anchor the inner parser's message at
    // this line, so every malformed attribute reports uniformly as
    // "plan IR line N: bad <attr> ...".
    auto parse_u64 = [&](const char* what,
                         std::string_view s) -> Result<uint64_t> {
      Result<uint64_t> v = ParseU64(s);
      if (!v.ok()) {
        return err(std::string(what) + ": " +
                   std::string(v.status().message()));
      }
      return v;
    };
    auto parse_hex64 = [&](const char* what,
                           std::string_view s) -> Result<uint64_t> {
      Result<uint64_t> v = ParseHex64(s);
      if (!v.ok()) {
        return err(std::string(what) + ": " +
                   std::string(v.status().message()));
      }
      return v;
    };
    auto parse_prov = [&](const char* what,
                          std::string_view s) -> Result<ColumnProvenance> {
      Result<ColumnProvenance> v = ParseProvenance(s);
      if (!v.ok()) {
        return err(std::string(what) + ": " +
                   std::string(v.status().message()));
      }
      return v;
    };

    std::vector<std::string> tokens;
    {
      std::string current;
      for (char c : line) {
        if (c == ' ' || c == '\t') {
          if (!current.empty()) tokens.push_back(std::move(current));
          current.clear();
        } else {
          current += c;
        }
      }
      if (!current.empty()) tokens.push_back(std::move(current));
    }

    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "ir") {
        return err("expected header 'ir <label>'");
      }
      ir.label = tokens[1];
      saw_header = true;
      continue;
    }
    if (tokens.size() < 3 || tokens[0] != "node") {
      return err("expected 'node <id> <kind> ...'");
    }
    TRAC_ASSIGN_OR_RETURN(uint64_t id, parse_u64("node id", tokens[1]));
    if (id != ir.nodes.size()) {
      return err("node ids must be dense and ascending (got " + tokens[1] +
                 ", want " + std::to_string(ir.nodes.size()) + ")");
    }
    IrNode node;
    node.id = id;
    bool kind_ok = false;
    for (IrNodeKind k :
         {IrNodeKind::kScan, IrNodeKind::kFilter, IrNodeKind::kJoin,
          IrNodeKind::kAggregate, IrNodeKind::kMerge, IrNodeKind::kTempWrite,
          IrNodeKind::kReport}) {
      if (tokens[2] == IrNodeKindToString(k)) {
        node.kind = k;
        kind_ok = true;
        break;
      }
    }
    if (!kind_ok) return err("unknown node kind '" + tokens[2] + "'");

    for (size_t t = 3; t < tokens.size(); ++t) {
      const std::string& tok = tokens[t];
      const size_t eq = tok.find('=');
      const std::string key = eq == std::string::npos ? tok : tok.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? std::string() : tok.substr(eq + 1);
      if (key == "in") {
        for (const std::string& piece : SplitOn(value, ',')) {
          TRAC_ASSIGN_OR_RETURN(uint64_t in, parse_u64("in", piece));
          node.inputs.push_back(in);
        }
      } else if (key == "table") {
        node.table = value;
      } else if (key == "snap") {
        TRAC_ASSIGN_OR_RETURN(node.snapshot, parse_u64("snap", value));
      } else if (key == "shard") {
        const std::vector<std::string> parts = SplitOn(value, '/');
        if (parts.size() != 2) return err("want shard=<k>/<n>");
        TRAC_ASSIGN_OR_RETURN(uint64_t k, parse_u64("shard", parts[0]));
        TRAC_ASSIGN_OR_RETURN(uint64_t n, parse_u64("shard", parts[1]));
        node.shard = k;
        node.num_shards = n;
      } else if (key == "pre") {
        node.preexisting_temp = true;
      } else if (key == "rows") {
        TRAC_ASSIGN_OR_RETURN(node.rows, parse_u64("rows", value));
        node.has_rows = true;
      } else if (key == "age") {
        const size_t dots = value.find("..");
        if (dots == std::string::npos) return err("want age=<lo>..<hi>");
        TRAC_ASSIGN_OR_RETURN(uint64_t lo,
                              parse_u64("age", value.substr(0, dots)));
        TRAC_ASSIGN_OR_RETURN(uint64_t hi,
                              parse_u64("age", value.substr(dots + 2)));
        if (lo > hi) return err("age interval has lo > hi");
        node.age_lo = static_cast<int64_t>(lo);
        node.age_hi = static_cast<int64_t>(hi);
        node.has_age = true;
      } else if (key == "sel") {
        if (value != "zero") return err("want sel=zero");
        node.sel_zero = true;
      } else if (key == "pred") {
        TRAC_ASSIGN_OR_RETURN(node.pred_fingerprint,
                              parse_hex64("pred", value));
        node.has_pred = true;
      } else if (key == "src") {
        for (std::string& piece : SplitOn(value, ',')) {
          if (piece.empty()) return err("want src=<table>,...");
          node.declared_sources.push_back(std::move(piece));
        }
      } else if (key == "bound") {
        TRAC_ASSIGN_OR_RETURN(uint64_t bound, parse_u64("bound", value));
        node.notice_bound_micros = static_cast<int64_t>(bound);
        node.has_bound = true;
      } else if (key == "key") {
        for (std::string piece : SplitOn(value, ',')) {
          IrNode::JoinKey jk;
          if (!piece.empty() && piece.back() == '*') {
            jk.relevance = true;
            piece.pop_back();
          }
          const std::vector<std::string> sides = SplitOn(piece, '-');
          if (sides.size() != 2) return err("want key=<p>-<b>[*],...");
          TRAC_ASSIGN_OR_RETURN(jk.probe, parse_prov("key", sides[0]));
          TRAC_ASSIGN_OR_RETURN(jk.build, parse_prov("key", sides[1]));
          node.keys.push_back(jk);
        }
      } else if (key == "fns") {
        for (const std::string& piece : SplitOn(value, ',')) {
          const std::vector<std::string> parts = SplitOn(piece, ':');
          if (parts.size() != 2) return err("want fns=<fn>:<p>,...");
          IrNode::Agg agg;
          agg.fn = parts[0];
          TRAC_ASSIGN_OR_RETURN(agg.arg, parse_prov("fns", parts[1]));
          node.aggs.push_back(std::move(agg));
        }
      } else if (key == "set") {
        node.set_merge = true;
      } else if (key == "sorted") {
        node.sorted = true;
      } else if (key == "session") {
        TRAC_ASSIGN_OR_RETURN(node.session, parse_u64("session", value));
      } else if (key == "gen") {
        node.generated = true;
      } else if (key == "actual_rows") {
        TRAC_ASSIGN_OR_RETURN(node.actual_rows,
                              parse_u64("actual_rows", value));
        node.has_actual_rows = true;
      } else if (key == "actual_ns") {
        TRAC_ASSIGN_OR_RETURN(uint64_t ns, parse_u64("actual_ns", value));
        node.actual_ns = static_cast<int64_t>(ns);
        node.has_actual_ns = true;
      } else if (key == "cols") {
        for (const std::string& piece : SplitOn(value, ',')) {
          const size_t colon = piece.rfind(':');
          if (colon == std::string::npos) return err("want cols=<name>:<p>,...");
          IrColumn col;
          col.name = piece.substr(0, colon);
          TRAC_ASSIGN_OR_RETURN(col.provenance,
                                parse_prov("cols", piece.substr(colon + 1)));
          node.columns.push_back(std::move(col));
        }
      } else {
        return err("unknown attribute '" + key + "'");
      }
    }
    ir.nodes.push_back(std::move(node));
  }
  if (!saw_header) return Status::ParseError("plan IR: missing 'ir <label>' header");
  return ir;
}

}  // namespace trac
