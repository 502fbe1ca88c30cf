#include "hssta/frontend/liberty.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "hssta/util/error.hpp"
#include "hssta/util/strings.hpp"

namespace hssta::frontend {

namespace {

using library::CellLibrary;
using library::CellType;
using library::GateFunc;
using library::Sensitivity;

/// --- tokenizer ----------------------------------------------------------

struct Token {
  enum Kind { kIdent, kString, kPunct, kEof } kind = kEof;
  std::string text;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  Lexer(std::istream& in, std::string origin) : origin_(std::move(origin)) {
    std::ostringstream os;
    os << in.rdbuf();
    src_ = os.str();
  }

  const std::string& origin() const { return origin_; }

  [[noreturn]] void fail(const Token& at, const std::string& msg) const {
    std::ostringstream os;
    os << "liberty parse error at " << origin_ << ':' << at.line << ':'
       << at.col << ": " << msg;
    throw Error(os.str());
  }

  Token next() {
    skip_space_and_comments();
    Token t;
    t.line = line_;
    t.col = col_;
    if (pos_ >= src_.size()) {
      t.kind = Token::kEof;
      return t;
    }
    const char c = src_[pos_];
    if (c == '"') {
      t.kind = Token::kString;
      advance();
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\n') fail(t, "unterminated string");
        t.text += src_[pos_];
        advance();
      }
      if (pos_ >= src_.size()) fail(t, "unterminated string");
      advance();  // closing quote
      return t;
    }
    if (is_ident_char(c)) {
      t.kind = Token::kIdent;
      while (pos_ < src_.size() && is_ident_char(src_[pos_])) {
        t.text += src_[pos_];
        advance();
      }
      return t;
    }
    // Single-character punctuation: ( ) { } ; : ,
    t.kind = Token::kPunct;
    t.text = std::string(1, c);
    advance();
    return t;
  }

 private:
  static bool is_ident_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '+' ||
           c == '-' || c == '!' || c == '\'' || c == '*' || c == '&' ||
           c == '|' || c == '^';
  }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_space_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\\') {
        advance();
        continue;
      }
      if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') advance();
        continue;
      }
      if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        const int line = line_;
        const int col = col_;
        advance();
        advance();
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/'))
          advance();
        if (pos_ + 1 >= src_.size()) {
          Token t;
          t.line = line;
          t.col = col;
          fail(t, "unterminated /* comment");
        }
        advance();
        advance();
        continue;
      }
      break;
    }
  }

  std::string origin_;
  std::string src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// --- function-string parsing --------------------------------------------

/// A Liberty-lite boolean function: one n-ary operator over plain input
/// pin names, optionally negated as a whole.
struct FuncExpr {
  GateFunc func = GateFunc::kBuf;  ///< kBuf/kAnd/kOr/kXor before negation
  std::vector<std::string> operands;
  bool negated = false;
};

class FuncParser {
 public:
  FuncParser(const std::string& text, const Lexer& lx, const Token& at)
      : text_(text), lx_(lx), at_(at) {}

  FuncExpr parse() {
    FuncExpr e = expr();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing characters in function: " + text_.substr(pos_));
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    lx_.fail(at_, "bad function \"" + text_ + "\": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  static bool is_name_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '[' || c == ']';
  }

  /// unary := '!' unary | primary '\''*
  FuncExpr unary() {
    if (peek() == '!') {
      ++pos_;
      FuncExpr e = unary();
      e.negated = !e.negated;
      return e;
    }
    FuncExpr e = primary();
    while (peek() == '\'') {
      ++pos_;
      e.negated = !e.negated;
    }
    return e;
  }

  FuncExpr primary() {
    const char c = peek();
    if (c == '(') {
      ++pos_;
      FuncExpr e = expr();
      if (peek() != ')') fail("expected )");
      ++pos_;
      return e;
    }
    if (!is_name_char(c)) fail("expected a pin name");
    FuncExpr e;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) {
      if (e.operands.empty()) e.operands.emplace_back();
      e.operands.back() += text_[pos_];
      ++pos_;
    }
    return e;
  }

  /// expr := unary (op unary)* — all operators must agree.
  FuncExpr expr() {
    FuncExpr first = unary();
    GateFunc op = GateFunc::kBuf;
    bool have_op = false;
    std::vector<FuncExpr> terms{std::move(first)};
    for (;;) {
      const char c = peek();
      GateFunc this_op;
      if (c == '*' || c == '&') this_op = GateFunc::kAnd;
      else if (c == '+' || c == '|') this_op = GateFunc::kOr;
      else if (c == '^') this_op = GateFunc::kXor;
      else break;
      if (have_op && this_op != op)
        fail("mixed operators need parentheses");
      op = this_op;
      have_op = true;
      ++pos_;
      terms.push_back(unary());
    }
    if (!have_op) return std::move(terms[0]);
    FuncExpr e;
    e.func = op;
    for (FuncExpr& t : terms) {
      // Operands must be plain pin names: negated or compound terms would
      // need logic this library cannot represent as a single gate.
      if (t.negated || t.func != GateFunc::kBuf || t.operands.size() != 1)
        fail("operands must be plain pin names (single-operator form)");
      e.operands.push_back(std::move(t.operands[0]));
    }
    return e;
  }

  const std::string& text_;
  const Lexer& lx_;
  const Token& at_;
  size_t pos_ = 0;
};

GateFunc resolve_func(const FuncExpr& e, const Lexer& lx, const Token& at,
                      const std::string& text) {
  if (e.operands.empty())
    lx.fail(at, "bad function \"" + text + "\": no operands");
  if (e.operands.size() == 1)
    return e.negated ? GateFunc::kNot : GateFunc::kBuf;
  switch (e.func) {
    case GateFunc::kAnd: return e.negated ? GateFunc::kNand : GateFunc::kAnd;
    case GateFunc::kOr: return e.negated ? GateFunc::kNor : GateFunc::kOr;
    case GateFunc::kXor: return e.negated ? GateFunc::kXnor : GateFunc::kXor;
    default:
      lx.fail(at, "bad function \"" + text + "\": unsupported operator");
  }
}

/// --- grammar ------------------------------------------------------------

struct Arc {
  std::string related_pin;
  std::optional<double> intrinsic_rise;
  std::optional<double> intrinsic_fall;
  std::optional<double> rise_resistance;
  std::optional<double> fall_resistance;
  Token at;
};

struct PinDecl {
  std::string name;
  std::string direction;
  std::optional<double> capacitance;
  std::string function;
  Token function_at;
  std::vector<Arc> arcs;
  Token at;
};

class Parser {
 public:
  Parser(std::istream& in, std::string origin)
      : lx_(in, std::move(origin)) {
    advance();
  }

  LibertyLibrary parse() {
    expect_ident("library");
    LibertyLibrary lib;
    lib.name = group_arg("library");
    expect_punct("{");
    while (!at_punct("}")) parse_library_statement(lib);
    expect_punct("}");
    if (cur_.kind != Token::kEof)
      lx_.fail(cur_, "trailing content after library group");
    return lib;
  }

 private:
  void advance() { cur_ = lx_.next(); }

  bool at_punct(const char* p) const {
    return cur_.kind == Token::kPunct && cur_.text == p;
  }

  void expect_punct(const char* p) {
    if (!at_punct(p))
      lx_.fail(cur_, std::string("expected '") + p + "', got '" + cur_.text +
                         "'");
    advance();
  }

  void expect_ident(const char* what) {
    if (cur_.kind != Token::kIdent || cur_.text != what)
      lx_.fail(cur_, std::string("expected '") + what + "', got '" +
                         cur_.text + "'");
    advance();
  }

  /// Consume `( args... )` and return the first argument (others ignored).
  std::string group_arg(const std::string& what) {
    expect_punct("(");
    std::string first;
    while (!at_punct(")")) {
      if (cur_.kind == Token::kEof)
        lx_.fail(cur_, "unterminated argument list of " + what);
      if (cur_.kind != Token::kPunct && first.empty()) first = cur_.text;
      advance();
    }
    expect_punct(")");
    return first;
  }

  /// Consume a simple attribute value (`: value ;`) and return it.
  Token attr_value() {
    expect_punct(":");
    if (cur_.kind != Token::kIdent && cur_.kind != Token::kString)
      lx_.fail(cur_, "expected an attribute value, got '" + cur_.text + "'");
    Token v = cur_;
    advance();
    // Tolerate a unit suffix token (e.g. `1.0 ns`).
    if (cur_.kind == Token::kIdent) advance();
    if (at_punct(";")) advance();  // trailing ';' is conventionally optional
    return v;
  }

  double attr_number(const std::string& key) {
    const Token v = attr_value();
    try {
      return parse_number(key, v.text);
    } catch (const Error& e) {
      lx_.fail(v, e.what());
    }
  }

  /// Skip a balanced `{ ... }` group body (cursor is at '{').
  void skip_group() {
    expect_punct("{");
    int depth = 1;
    while (depth > 0) {
      if (cur_.kind == Token::kEof) lx_.fail(cur_, "unterminated group");
      if (at_punct("{")) ++depth;
      if (at_punct("}")) --depth;
      advance();
    }
  }

  /// Statement dispatch: `ident : value ;` (simple attribute), `ident
  /// (args) { ... }` (group) or `ident (args) ;` (complex attribute).
  /// Returns the statement's head identifier; group bodies are handled by
  /// the callbacks below.
  enum class Stmt { kAttr, kGroup, kComplex };

  Stmt statement_head(Token& head, std::string& arg) {
    if (cur_.kind != Token::kIdent)
      lx_.fail(cur_, "expected a statement, got '" + cur_.text + "'");
    head = cur_;
    advance();
    if (at_punct(":")) return Stmt::kAttr;  // value still pending
    if (at_punct("(")) {
      arg = group_arg(head.text);
      if (at_punct("{")) return Stmt::kGroup;
      if (at_punct(";")) {
        advance();
        return Stmt::kComplex;
      }
      return Stmt::kComplex;  // e.g. `capacitive_load_unit (1,ff)` sans ';'
    }
    lx_.fail(cur_, "expected ':' or '(' after '" + head.text + "'");
  }

  void parse_library_statement(LibertyLibrary& lib) {
    Token head;
    std::string arg;
    switch (statement_head(head, arg)) {
      case Stmt::kAttr:
        (void)attr_value();  // library-level attributes are ignored
        return;
      case Stmt::kComplex:
        return;
      case Stmt::kGroup:
        if (head.text == "cell") {
          parse_cell(lib, arg, head);
        } else {
          skip_group();
        }
        return;
    }
  }

  void parse_cell(LibertyLibrary& lib, const std::string& name,
                  const Token& at) {
    if (name.empty()) lx_.fail(at, "cell needs a name");
    std::vector<PinDecl> pins;
    std::vector<Sensitivity> sens;
    std::optional<double> area;
    expect_punct("{");
    while (!at_punct("}")) {
      Token head;
      std::string arg;
      switch (statement_head(head, arg)) {
        case Stmt::kAttr:
          if (head.text == "area")
            area = attr_number("area");
          else
            (void)attr_value();
          break;
        case Stmt::kComplex:
          break;
        case Stmt::kGroup:
          if (head.text == "pin") {
            pins.push_back(parse_pin(arg, head));
          } else if (head.text == "sensitivity") {
            sens.push_back(parse_sensitivity(arg, head));
          } else {
            skip_group();
          }
          break;
      }
    }
    expect_punct("}");
    lib.cells.add(assemble_cell(name, at, pins, sens, area));
  }

  PinDecl parse_pin(const std::string& name, const Token& at) {
    PinDecl pin;
    pin.name = name;
    pin.at = at;
    if (name.empty()) lx_.fail(at, "pin needs a name");
    expect_punct("{");
    while (!at_punct("}")) {
      Token head;
      std::string arg;
      switch (statement_head(head, arg)) {
        case Stmt::kAttr: {
          if (head.text == "direction") {
            pin.direction = attr_value().text;
          } else if (head.text == "capacitance") {
            pin.capacitance = attr_number("capacitance");
          } else if (head.text == "function") {
            const Token v = attr_value();
            pin.function = v.text;
            pin.function_at = v;
          } else {
            (void)attr_value();
          }
          break;
        }
        case Stmt::kComplex:
          break;
        case Stmt::kGroup:
          if (head.text == "timing") {
            pin.arcs.push_back(parse_timing(head));
          } else {
            skip_group();
          }
          break;
      }
    }
    expect_punct("}");
    if (pin.direction != "input" && pin.direction != "output")
      lx_.fail(at, "pin " + name +
                       " needs direction: input or output, got: " +
                       (pin.direction.empty() ? "<missing>" : pin.direction));
    return pin;
  }

  Arc parse_timing(const Token& at) {
    Arc arc;
    arc.at = at;
    expect_punct("{");
    while (!at_punct("}")) {
      Token head;
      std::string arg;
      switch (statement_head(head, arg)) {
        case Stmt::kAttr:
          if (head.text == "related_pin")
            arc.related_pin = attr_value().text;
          else if (head.text == "intrinsic_rise")
            arc.intrinsic_rise = attr_number("intrinsic_rise");
          else if (head.text == "intrinsic_fall")
            arc.intrinsic_fall = attr_number("intrinsic_fall");
          else if (head.text == "intrinsic")
            arc.intrinsic_rise = arc.intrinsic_fall =
                attr_number("intrinsic");
          else if (head.text == "rise_resistance")
            arc.rise_resistance = attr_number("rise_resistance");
          else if (head.text == "fall_resistance")
            arc.fall_resistance = attr_number("fall_resistance");
          else
            (void)attr_value();
          break;
        case Stmt::kComplex:
          break;
        case Stmt::kGroup:
          skip_group();
          break;
      }
    }
    expect_punct("}");
    if (arc.related_pin.empty())
      lx_.fail(at, "timing() arc needs a related_pin");
    if (!arc.intrinsic_rise && !arc.intrinsic_fall)
      lx_.fail(at, "timing() arc for pin " + arc.related_pin +
                       " needs intrinsic_rise/intrinsic_fall (or intrinsic)");
    return arc;
  }

  Sensitivity parse_sensitivity(const std::string& param, const Token& at) {
    if (param.empty()) lx_.fail(at, "sensitivity needs a parameter name");
    Sensitivity s;
    s.parameter = param;
    bool have_value = false;
    expect_punct("{");
    while (!at_punct("}")) {
      Token head;
      std::string arg;
      switch (statement_head(head, arg)) {
        case Stmt::kAttr:
          if (head.text == "value") {
            s.value = attr_number("value");
            have_value = true;
          } else {
            (void)attr_value();
          }
          break;
        case Stmt::kComplex:
          break;
        case Stmt::kGroup:
          skip_group();
          break;
      }
    }
    expect_punct("}");
    if (!have_value)
      lx_.fail(at, "sensitivity(" + param + ") needs a value attribute");
    return s;
  }

  CellType assemble_cell(const std::string& name, const Token& at,
                         const std::vector<PinDecl>& pins,
                         std::vector<Sensitivity> sens,
                         std::optional<double> area) {
    std::vector<const PinDecl*> inputs;
    const PinDecl* output = nullptr;
    for (const PinDecl& p : pins) {
      if (p.direction == "input") {
        inputs.push_back(&p);
      } else {
        if (output)
          lx_.fail(p.at, "cell " + name + " has more than one output pin");
        output = &p;
      }
    }
    if (!output) lx_.fail(at, "cell " + name + " has no output pin");
    if (inputs.empty()) lx_.fail(at, "cell " + name + " has no input pins");
    if (output->function.empty())
      lx_.fail(output->at,
               "output pin " + output->name + " of cell " + name +
                   " needs a function attribute");

    const FuncExpr expr =
        FuncParser(output->function, lx_, output->function_at).parse();
    const GateFunc func =
        resolve_func(expr, lx_, output->function_at, output->function);
    // The supported functions are all symmetric, so operand order need not
    // match pin declaration order — only the sets must agree.
    if (expr.operands.size() != inputs.size())
      lx_.fail(output->function_at,
               "function of cell " + name + " uses " +
                   std::to_string(expr.operands.size()) + " operands but " +
                   std::to_string(inputs.size()) + " input pins are declared");
    for (const std::string& op : expr.operands) {
      const bool known =
          std::any_of(inputs.begin(), inputs.end(),
                      [&](const PinDecl* p) { return p->name == op; });
      if (!known)
        lx_.fail(output->function_at,
                 "function of cell " + name +
                     " references undeclared input pin " + op);
    }

    CellType cell;
    cell.name = name;
    cell.func = func;
    cell.num_inputs = inputs.size();
    cell.width = area.value_or(1.0);
    cell.sensitivities = std::move(sens);

    double max_cap = 0.0;
    for (const PinDecl* p : inputs) {
      if (!p->capacitance)
        lx_.fail(p->at, "input pin " + p->name + " of cell " + name +
                            " needs a capacitance attribute");
      max_cap = std::max(max_cap, *p->capacitance);
    }
    cell.input_cap = max_cap;

    cell.intrinsic.resize(inputs.size(), -1.0);
    double max_res = 0.0;
    for (const Arc& a : output->arcs) {
      size_t idx = inputs.size();
      for (size_t i = 0; i < inputs.size(); ++i)
        if (inputs[i]->name == a.related_pin) idx = i;
      if (idx == inputs.size())
        lx_.fail(a.at, "timing() arc of cell " + name +
                           " references unknown input pin " + a.related_pin);
      const double intrinsic = std::max(a.intrinsic_rise.value_or(0.0),
                                        a.intrinsic_fall.value_or(0.0));
      cell.intrinsic[idx] = std::max(cell.intrinsic[idx], intrinsic);
      max_res = std::max({max_res, a.rise_resistance.value_or(0.0),
                          a.fall_resistance.value_or(0.0)});
    }
    for (size_t i = 0; i < inputs.size(); ++i)
      if (cell.intrinsic[i] < 0.0)
        lx_.fail(output->at, "cell " + name + " has no timing() arc for " +
                                 "input pin " + inputs[i]->name);
    cell.drive_res = max_res;
    return cell;
  }

  Lexer lx_;
  Token cur_;
};

}  // namespace

LibertyLibrary read_liberty(std::istream& in, std::string origin) {
  return Parser(in, std::move(origin)).parse();
}

LibertyLibrary read_liberty_string(const std::string& text) {
  std::istringstream in(text);
  return read_liberty(in, "<liberty>");
}

LibertyLibrary read_liberty_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open liberty file: " + path);
  return read_liberty(in, path);
}

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string pin_name(size_t i) {
  HSSTA_REQUIRE(i < 24, "write_liberty supports at most 24 input pins");
  return std::string(1, static_cast<char>('A' + i));
}

std::string function_string(GateFunc func, size_t n) {
  const char* op = "*";
  bool negated = false;
  switch (func) {
    case GateFunc::kBuf: return pin_name(0);
    case GateFunc::kNot: {
      const std::string pin = pin_name(0);
      return "!" + pin;
    }
    case GateFunc::kAnd: op = "*"; break;
    case GateFunc::kNand: op = "*"; negated = true; break;
    case GateFunc::kOr: op = "+"; break;
    case GateFunc::kNor: op = "+"; negated = true; break;
    case GateFunc::kXor: op = "^"; break;
    case GateFunc::kXnor: op = "^"; negated = true; break;
  }
  std::string body = "(";
  for (size_t i = 0; i < n; ++i) {
    if (i) body += std::string(" ") + op + " ";
    body += pin_name(i);
  }
  body += ")";
  return negated ? body + "'" : body;
}

}  // namespace

void write_liberty(std::ostream& out, const std::string& name,
                   const CellLibrary& lib) {
  out << "/* " << name << " — written by hssta */\n";
  out << "library (" << name << ") {\n";
  for (const CellType* cell : lib.all()) {
    out << "  cell (" << cell->name << ") {\n";
    out << "    area : " << num(cell->width) << ";\n";
    for (size_t i = 0; i < cell->num_inputs; ++i) {
      out << "    pin (" << pin_name(i) << ") { direction : input; "
          << "capacitance : " << num(cell->input_cap) << "; }\n";
    }
    out << "    pin (Y) {\n";
    out << "      direction : output;\n";
    out << "      function : \"" << function_string(cell->func,
                                                    cell->num_inputs)
        << "\";\n";
    for (size_t i = 0; i < cell->num_inputs; ++i) {
      out << "      timing () { related_pin : \"" << pin_name(i)
          << "\"; intrinsic : " << num(cell->intrinsic[i])
          << "; rise_resistance : " << num(cell->drive_res)
          << "; fall_resistance : " << num(cell->drive_res) << "; }\n";
    }
    out << "    }\n";
    for (const Sensitivity& s : cell->sensitivities) {
      out << "    sensitivity (" << s.parameter << ") { value : "
          << num(s.value) << "; }\n";
    }
    out << "  }\n";
  }
  out << "}\n";
}

std::string write_liberty_string(const std::string& name,
                                 const CellLibrary& lib) {
  std::ostringstream os;
  write_liberty(os, name, lib);
  return os.str();
}

}  // namespace hssta::frontend
