//===- corpus/Generators.cpp ----------------------------------------------===//

#include "corpus/Generators.h"

#include <sstream>
#include <vector>

using namespace virgil;

std::string corpus::genCallConvWorkload(int Calls) {
  std::ostringstream OS;
  OS << R"(
def f(a: int, b: int) -> int { return a + b; }
def g(a: (int, int)) -> int { return a.0 + a.1 + 1; }
def main() -> int {
  var fs = Array<(int, int) -> int>.new(2);
  fs[0] = f;
  fs[1] = g;
  var acc = 0;
)";
  OS << "  for (i = 0; i < " << Calls << "; i = i + 1) {\n";
  OS << "    var h = fs[i % 2];\n";
  OS << "    acc = (acc + h(i, 1)) % 1000000;\n";
  OS << "  }\n";
  OS << "  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genTupleWorkload(int Width, int Iters) {
  std::ostringstream OS;
  // Tuple type (int, int, ..., int) of Width elements (Width >= 2 for a
  // real tuple; Width == 1 degenerates to int, which is the control).
  auto tupleTy = [&]() {
    std::ostringstream T;
    T << '(';
    for (int I = 0; I != Width; ++I) {
      if (I)
        T << ", ";
      T << "int";
    }
    T << ')';
    return T.str();
  };
  std::string Ty = Width == 1 ? "int" : tupleTy();
  OS << "def make(seed: int) -> " << Ty << " {\n  return ";
  if (Width == 1) {
    OS << "seed";
  } else {
    OS << '(';
    for (int I = 0; I != Width; ++I) {
      if (I)
        OS << ", ";
      OS << "seed + " << I;
    }
    OS << ')';
  }
  OS << ";\n}\n";
  OS << "def consume(t: " << Ty << ") -> int {\n  return ";
  if (Width == 1) {
    OS << "t";
  } else {
    for (int I = 0; I != Width; ++I) {
      if (I)
        OS << " + ";
      OS << "t." << I;
    }
  }
  OS << ";\n}\n";
  // Pass through an extra hop so the tuple crosses two call
  // boundaries per iteration.
  OS << "def hop(t: " << Ty << ") -> " << Ty << " { return t; }\n";
  OS << "def main() -> int {\n  var acc = 0;\n";
  OS << "  for (i = 0; i < " << Iters << "; i = i + 1) {\n";
  OS << "    acc = (acc + consume(hop(make(i)))) % 1000000;\n";
  OS << "  }\n  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genPolyCallWorkload(int Iters) {
  std::ostringstream OS;
  OS << R"(
def id<T>(x: T) -> T { return x; }
def pair<A, B>(a: A, b: B) -> (A, B) { return (a, b); }
def select<A, B>(p: (A, B), first: bool) -> A {
  if (first) return p.0;
  return p.0;
}
def wrap<T>(x: T) -> T {
  // The call below passes the polymorphic type argument (T, T): the
  // interpreter must substitute it at runtime on every call (§4.3).
  return id((x, x)).0;
}
def main() -> int {
  var acc = 0;
)";
  OS << "  for (i = 0; i < " << Iters << "; i = i + 1) {\n";
  OS << "    var p = pair(id(i), id((i, i + 1)));\n";
  OS << "    acc = (acc + select(p, true) + id(p.1).0 + wrap(i)) "
     << "% 1000000;\n";
  OS << "  }\n  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genAdhocWorkload(int Cases, int Iters, bool Direct) {
  std::ostringstream OS;
  // Case types: int, bool, byte, then tuples of increasing width.
  std::vector<std::string> CaseTys = {"int", "bool", "byte"};
  for (int W = 2; (int)CaseTys.size() < Cases; ++W) {
    std::ostringstream T;
    T << "(int";
    for (int I = 1; I != W; ++I)
      T << ", int";
    T << ')';
    CaseTys.push_back(T.str());
  }
  CaseTys.resize(Cases);
  OS << "var acc = 0;\n";
  for (int I = 0; I != Cases; ++I)
    OS << "def handle" << I << "(a: " << CaseTys[I]
       << ") { acc = (acc + " << (I + 1) << ") % 1000000; }\n";
  OS << "def print1<T>(a: T) {\n";
  for (int I = 0; I != Cases; ++I)
    OS << "  if (" << CaseTys[I] << ".?(a)) handle" << I << "("
       << CaseTys[I] << ".!(a));\n";
  OS << "}\n";
  OS << "def main() -> int {\n";
  OS << "  for (i = 0; i < " << Iters << "; i = i + 1) {\n";
  if (Direct)
    OS << "    handle0(i);\n";
  else
    OS << "    print1(i);\n";
  OS << "  }\n  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genExpansionWorkload(int Generics, int Insts,
                                         int Reps) {
  std::ostringstream OS;
  OS << "class List<T> {\n  var head: T;\n  var tail: List<T>;\n"
     << "  new(head, tail) { }\n}\n";
  for (int G = 0; G != Generics; ++G) {
    OS << "def gen" << G << "<T>(x: T, n: int) -> int {\n"
       << "  var l = List.new(x, null);\n"
       << "  var c = 0;\n"
       << "  for (k = l; k != null; k = k.tail) c = c + n;\n"
       << "  return c;\n}\n";
  }
  OS << "def main() -> int {\n  var acc = 0;\n";
  if (Reps > 1)
    OS << "  for (rep = 0; rep < " << Reps << "; rep = rep + 1) {\n";
  for (int G = 0; G != Generics; ++G) {
    for (int I = 0; I != Insts; ++I) {
      // Distinct instantiation types: nested tuples of ints.
      std::string Ty = "int";
      std::string Val = "1";
      for (int D = 0; D != I % 4; ++D) {
        Ty = "(" + Ty + ", int)";
        Val = "(" + Val + ", 2)";
      }
      switch (I % 3) {
      case 0:
        break;
      case 1:
        Ty = "Array<" + Ty + ">";
        Val = "Array<" +
              ((I % 4) == 0 ? std::string("int")
                            : [&] {
                                std::string T2 = "int";
                                for (int D = 0; D != I % 4; ++D)
                                  T2 = "(" + T2 + ", int)";
                                return T2;
                              }()) +
              ">.new(1)";
        break;
      case 2:
        Ty = "bool";
        Val = "true";
        break;
      }
      if (I % 3 == 2 && I > 2)
        continue; // bool repeats; skip duplicate instantiations.
      OS << "  acc = acc + gen" << G << "<" << Ty << ">(" << Val
         << ", 1);\n";
    }
  }
  if (Reps > 1)
    OS << "  }\n";
  OS << "  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genShareWorkload(int Generics, int Insts, int Reps) {
  std::ostringstream OS;
  OS << "class List<T> {\n  var head: T;\n  var tail: List<T>;\n"
     << "  new(head, tail) { }\n}\n";
  // Distinct instantiation types are distinct *classes*: every ref
  // instantiation of a traverser below gets the same normalized body.
  for (int I = 0; I != Insts; ++I)
    OS << "class C" << I << " { }\n";
  for (int G = 0; G != Generics; ++G) {
    // The per-G constant keeps the Generics traversers distinct from
    // each other while every instantiation of one stays identical.
    OS << "def walk" << G << "<T>(l: List<T>) -> int {\n"
       << "  var c = 0;\n"
       << "  for (k = l; k != null; k = k.tail) c = c + " << (G + 1)
       << ";\n"
       << "  return c;\n}\n";
  }
  OS << "def main() -> int {\n  var acc = 0;\n";
  // Allocation stays in main (monomorphic context): the generic
  // bodies only traverse, so sharing them is observationally safe and
  // the Reps loop below allocates nothing.
  for (int I = 0; I != Insts; ++I)
    OS << "  var l" << I << " = List.new(C" << I << ".new(), List.new(C"
       << I << ".new(), null));\n";
  if (Reps > 1)
    OS << "  for (rep = 0; rep < " << Reps << "; rep = rep + 1) {\n";
  for (int G = 0; G != Generics; ++G)
    for (int I = 0; I != Insts; ++I)
      OS << "  acc = acc + walk" << G << "<C" << I << ">(l" << I
         << ");\n";
  if (Reps > 1)
    OS << "  }\n";
  OS << "  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genLiveShareWorkload(int Generics, int Insts,
                                         int Reps) {
  std::ostringstream OS;
  OS << "class List<T> {\n  var head: T;\n  var tail: List<T>;\n"
     << "  new(head, tail) { }\n}\n";
  for (int I = 0; I != Insts; ++I)
    OS << "class C" << I << " { }\n";
  OS << "class Walker {\n  def walk() -> int { return 0; }\n}\n";
  for (int G = 0; G != Generics; ++G) {
    // The per-G constants keep the traversers distinct from each other
    // while every instantiation of one stays identical.
    OS << "class Walk" << G << "<T> extends Walker {\n"
       << "  var l: List<T>;\n"
       << "  new(l) { }\n"
       << "  def walk() -> int {\n"
       << "    var c = 0;\n"
       << "    var n = 0;\n"
       << "    for (k = l; k != null; k = k.tail) {\n"
       << "      n = n + 1;\n"
       << "      if (k.tail != null) c = c + n * " << (G + 1) << ";\n"
       << "      else c = c + " << (G + 2) << ";\n"
       << "    }\n"
       << "    return c * " << (G + 3) << " + n;\n"
       << "  }\n}\n";
  }
  OS << "def main() -> int {\n";
  for (int I = 0; I != Insts; ++I)
    OS << "  var l" << I << " = List.new(C" << I << ".new(), List.new(C"
       << I << ".new(), null));\n";
  OS << "  var ws = Array<Walker>.new(" << Generics * Insts << ");\n";
  for (int G = 0; G != Generics; ++G)
    for (int I = 0; I != Insts; ++I)
      OS << "  ws[" << G * Insts + I << "] = Walk" << G << "<C" << I
         << ">.new(l" << I << ");\n";
  OS << "  var acc = 0;\n";
  if (Reps > 1)
    OS << "  for (rep = 0; rep < " << Reps << "; rep = rep + 1) {\n";
  OS << "  for (i = 0; i < ws.length; i = i + 1) acc = acc + ws[i].walk();\n";
  if (Reps > 1)
    OS << "  }\n";
  OS << "  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genMatcherWorkload(int Handlers, int Iters) {
  std::ostringstream OS;
  OS << R"(
class Any { }
class Box<T> extends Any {
  var val: T;
  new(val) { }
  def unbox() -> T { return val; }
}
class List<T> {
  var head: T;
  var tail: List<T>;
  new(head, tail) { }
}
class Matcher {
  var matches: List<Any>;
  def add<T>(f: T -> void) {
    matches = List<Any>.new(Box.new(f), matches);
  }
  def dispatch<T>(v: T) {
    for (l = matches; l != null; l = l.tail) {
      var f = l.head;
      if (Box<T -> void>.?(f)) {
        Box<T -> void>.!(f).unbox()(v);
        return;
      }
    }
  }
}
var acc = 0;
)";
  for (int H = 0; H != Handlers; ++H) {
    // Handler H accepts a tuple of width H+2 (all distinct types).
    OS << "def handler" << H << "(v: (int";
    for (int W = 0; W != H + 1; ++W)
      OS << ", int";
    OS << ")) { acc = (acc + " << (H + 1) << ") % 1000000; }\n";
  }
  OS << "def main() -> int {\n  var m = Matcher.new();\n";
  for (int H = 0; H != Handlers; ++H)
    OS << "  m.add(handler" << H << ");\n";
  OS << "  for (i = 0; i < " << Iters << "; i = i + 1) {\n";
  // Dispatch the type matched by the LAST-added handler first in the
  // list, and also the one deepest in the list.
  OS << "    m.dispatch((i, 1";
  for (int W = 0; W != Handlers - 1; ++W)
    OS << ", 2";
  OS << "));\n";
  OS << "    m.dispatch((i, 1));\n";
  OS << "  }\n  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genVarianceWorkload(int Len, int Iters,
                                        bool Functional) {
  std::ostringstream OS;
  OS << R"(
class Animal {
  def noise() -> int { return 1; }
}
class Bat extends Animal {
  def noise() -> int { return 2; }
}
class List<T> {
  var head: T;
  var tail: List<T>;
  new(head, tail) { }
}
def apply<A>(list: List<A>, f: A -> void) {
  for (l = list; l != null; l = l.tail) f(l.head);
}
var total = 0;
def g(a: Animal) { total = (total + a.noise()) % 1000000; }
def main() -> int {
  var b: List<Bat> = null;
)";
  OS << "  for (i = 0; i < " << Len << "; i = i + 1) "
     << "b = List.new(Bat.new(), b);\n";
  OS << "  for (i = 0; i < " << Iters << "; i = i + 1) {\n";
  if (Functional) {
    OS << "    apply(b, g);\n";
  } else {
    OS << "    for (l = b; l != null; l = l.tail) "
       << "total = (total + l.head.noise()) % 1000000;\n";
  }
  OS << "  }\n  return total;\n}\n";
  return OS.str();
}

std::string corpus::genGcWorkload(int Rounds, int LiveNodes) {
  std::ostringstream OS;
  OS << R"(
class Node {
  var value: int;
  var next: Node;
  new(value, next) { }
}
def buildList(n: int) -> Node {
  var head: Node = null;
  for (i = 0; i < n; i = i + 1) head = Node.new(i, head);
  return head;
}
def sumList(l: Node) -> int {
  var s = 0;
  for (n = l; n != null; n = n.next) s = (s + n.value) % 1000000;
  return s;
}
def main() -> int {
)";
  OS << "  var keep = buildList(" << LiveNodes << ");\n";
  OS << "  var acc = 0;\n";
  OS << "  for (round = 0; round < " << Rounds << "; round = round + 1) {\n";
  OS << "    var garbage = buildList(512);\n";
  OS << "    acc = (acc + sumList(garbage)) % 1000000;\n";
  OS << "  }\n";
  OS << "  return (acc + sumList(keep)) % 1000000;\n}\n";
  return OS.str();
}

std::string corpus::genEscapeChurn(int Rounds, int Width, int LiveNodes) {
  std::ostringstream OS;
  OS << R"(
class Node {
  var value: int;
  var next: Node;
  new(value, next) { }
}
class Pt {
  var x: int;
  var y: int;
  new(x, y) { }
  def dist2() -> int { return x * x + y * y; }
}
def buildList(n: int) -> Node {
  var head: Node = null;
  for (i = 0; i < n; i = i + 1) head = Node.new(i, head);
  return head;
}
def sumList(l: Node) -> int {
  var s = 0;
  for (n = l; n != null; n = n.next) s = (s + n.value) % 1000000;
  return s;
}
def main() -> int {
)";
  OS << "  var keep = buildList(" << LiveNodes << ");\n";
  OS << "  var acc = 0;\n";
  OS << "  for (round = 0; round < " << Rounds << "; round = round + 1) {\n";
  OS << "    for (i = 0; i < " << Width << "; i = i + 1) {\n";
  // Object churn: a fresh Pt per step, consumed through a virtual
  // method (exact-receiver devirt -> inline -> scalarize).
  OS << "      var p = Pt.new(i, round);\n";
  OS << "      acc = (acc + p.dist2()) % 1000000;\n";
  // Closure churn: a bound-method closure over another local object,
  // called once (closure flattening feeds the object's scalarization).
  OS << "      var q = Pt.new(i + 1, round + 1);\n";
  OS << "      var g = q.dist2;\n";
  OS << "      acc = (acc + g()) % 1000000;\n";
  OS << "    }\n";
  OS << "  }\n";
  OS << "  return (acc + sumList(keep)) % 1000000;\n}\n";
  return OS.str();
}

std::string corpus::genSsaWorkload(int Units, int Rounds) {
  std::ostringstream OS;
  // The hot path is built from the two redundancies the SSA mid-tier
  // exists for. weigh() re-reads every field after the diamond join —
  // a redundant FieldGet/NullCheck chain the dense local passes cannot
  // forward but dominance-scoped load elimination can. classify<T> is
  // the paper's §3.3 chain: after specialization every type query is
  // decided statically and SCCP folds the whole ladder to a straight
  // line.
  OS << R"(
class Cell {
  var a: int;
  var b: int;
  var c: int;
  new(a, b, c) { }
}
class Grid {
  var east: Cell;
  var west: Cell;
  new(east, west) { }
  def weigh(bias: bool) -> int {
    var t = 0;
    if (bias) t = east.a + east.b + east.c;
    else t = west.a + west.b + west.c;
    t = t + east.a + east.b + east.c;
    t = t + west.a + west.b + west.c;
    return t;
  }
}
def classify<T>(x: T) -> int {
  if (int.?(x)) return int.!(x);
  if (bool.?(x)) { if (bool.!(x)) return 1; else return 0; }
  if (byte.?(x)) return 100;
  return -1;
}
)";
  for (int U = 0; U != Units; ++U) {
    OS << "def blend" << U << "(g: Grid, n: int) -> int {\n";
    OS << "  var acc = 0;\n";
    OS << "  for (i = 0; i < n; i = i + 1) {\n";
    OS << "    var e = g.east;\n";
    OS << "    acc = (acc + e.a * " << (3 + 2 * (U % 5)) << " + e.b * "
       << (5 + 2 * (U % 3)) << " + e.c * 7) % 1000003;\n";
    OS << "    acc = (acc + g.east.a + g.east.b) % 1000003;\n";
    OS << "    acc = (acc + g.weigh(i % 2 == 0)) % 1000003;\n";
    OS << "    acc = (acc + classify(i) + classify(i % 2 == 0) + "
          "classify('x')) % 1000003;\n";
    OS << "  }\n";
    OS << "  return acc;\n}\n";
  }
  OS << "def main() -> int {\n";
  OS << "  var g = Grid.new(Cell.new(1, 2, 3), Cell.new(4, 5, 6));\n";
  OS << "  var acc = 0;\n";
  for (int U = 0; U != Units; ++U)
    OS << "  acc = (acc + blend" << U << "(g, " << Rounds
       << ")) % 1000003;\n";
  OS << "  return acc;\n}\n";
  return OS.str();
}

std::string corpus::genThroughputProgram(int Classes) {
  std::ostringstream OS;
  OS << "class Base {\n  def cost() -> int { return 1; }\n}\n";
  for (int C = 0; C != Classes; ++C) {
    OS << "class C" << C << " extends Base {\n";
    OS << "  var x: int;\n  var y: (int, int);\n";
    OS << "  new(x: int) super() { y = (x, x + 1); }\n";
    OS << "  def cost() -> int { return x + y.0 + y.1 + " << C << "; }\n";
    OS << "  def helper(k: int) -> int {\n";
    OS << "    var t = (k, k * 2, k * 3);\n";
    OS << "    if (t.0 > t.1) return t.2;\n";
    OS << "    return t.0 + t.1;\n  }\n";
    OS << "}\n";
  }
  OS << "def main() -> int {\n  var acc = 0;\n";
  int Use = Classes < 8 ? Classes : 8;
  for (int C = 0; C != Use; ++C) {
    OS << "  var o" << C << ": Base = C" << C << ".new(" << C << ");\n";
    OS << "  acc = acc + o" << C << ".cost();\n";
  }
  OS << "  return acc;\n}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Random differential-fuzzing programs
//===----------------------------------------------------------------------===//

std::string corpus::GenConfig::summary() const {
  std::string S;
  auto add = [&](bool On, const char *Name) {
    if (!On)
      return;
    if (!S.empty())
      S += ',';
    S += Name;
  };
  add(VirtualDispatch, "virtual-dispatch");
  add(NestedTuples, "nested-tuples");
  add(HigherOrder, "higher-order");
  add(DeepGenerics, "deep-generics");
  add(OperatorValues, "operator-values");
  add(CastChains, "cast-chains");
  add(Loops, "loops");
  return S.empty() ? "none" : S;
}

namespace {

using corpus::GenConfig;

/// Deterministic generator state for random programs.
class ProgramGen {
public:
  ProgramGen(uint32_t Seed, const GenConfig &Config)
      : Config(Config), State(Seed * 2654435761u + 1) {}

  std::string run() {
    genPrelude();
    int MaxFuncs = Config.MaxFuncs < 2 ? 2 : Config.MaxFuncs;
    int NumFuncs = 2 + range(MaxFuncs - 1);
    for (int F = 0; F != NumFuncs; ++F)
      genFunction(F);
    genMain(NumFuncs);
    return OS.str();
  }

private:
  /// Fixed helper declarations; each config toggle contributes its own
  /// block, so a disabled feature is absent from the whole program.
  void genPrelude() {
    if (Config.VirtualDispatch) {
      // A base/override pair used behind the base type.
      OS << "class Cell {\n"
         << "  var a: int;\n"
         << "  var b: (int, int);\n"
         << "  new(a, b) { }\n"
         << "  def sum() -> int { return a + b.0 + b.1; }\n"
         << "}\n"
         << "class WeightedCell extends Cell {\n"
         << "  new(a: int, b: (int, int)) super(a, b) { }\n"
         << "  def sum() -> int { return a * 2 + b.0 - b.1; }\n"
         << "}\n"
         << "def cellSum(c: Cell) -> int { return c.sum(); }\n";
    }
    if (Config.NestedTuples) {
      // Tuples nested in an array and in fields, read back through
      // projections (normalizer stress: scalarized fields + arrays of
      // flattened tuples).
      OS << "class Grid {\n"
         << "  var cells: Array<(int, int)>;\n"
         << "  var corner: ((int, int), int);\n"
         << "  new(n: int, corner) {\n"
         << "    cells = Array<(int, int)>.new(n);\n";
      // The Loops toggle governs every loop in the program, prelude
      // included, so `--gen-off loops` output is loop-free.
      if (Config.Loops)
        OS << "    for (i = 0; i < n; i = i + 1) cells[i] = (i * 3, i - 1);\n";
      else
        OS << "    if (n > 0) cells[0] = (3, 7);\n";
      OS << "  }\n"
         << "  def at(i: int) -> (int, int) {\n"
         << "    return cells[((i % cells.length) + cells.length) "
            "% cells.length];\n"
         << "  }\n"
         << "  def total() -> int {\n"
         << "    var s = 0;\n";
      if (Config.Loops)
        OS << "    for (i = 0; i < cells.length; i = i + 1) "
              "s = s + cells[i].0 + cells[i].1;\n";
      else
        OS << "    if (cells.length > 0) s = cells[0].0 + cells[0].1;\n";
      OS << "    return s + corner.0.0 + corner.0.1 + corner.1;\n"
         << "  }\n"
         << "}\n";
    }
    if (Config.HigherOrder) {
      OS << "def step(a: int) -> int { return a * 2 - 3; }\n"
         << "def hof(f: int -> int, x: int) -> int { return f(f(x)); }\n";
    }
    if (Config.DeepGenerics) {
      // Type-parameter nesting depth 3 on a class and on explicit
      // function type arguments.
      OS << "def id<T>(x: T) -> T { return x; }\n"
         << "class Box<T> {\n"
         << "  var v: T;\n"
         << "  new(v) { }\n"
         << "  def get() -> T { return v; }\n"
         << "}\n"
         << "def deep3(k: int) -> int {\n"
         << "  var b = Box<Box<Box<int>>>.new(Box.new(Box.new(k)));\n"
         << "  var t = id<((int, int), int)>(((k, k + 1), k + 2));\n"
         << "  return id<Box<Box<Box<int>>>>(b).v.get().v "
            "+ t.0.0 + t.0.1 + t.1;\n"
         << "}\n";
    }
    if (Config.OperatorValues) {
      // ==, !=, ? as first-class values (§2.2's universal operators).
      OS << "def opsProbe(a: int, b: int) -> int {\n"
         << "  var eq = int.==;\n"
         << "  var ne = (int, int).!=;\n"
         << "  var isInt = int.?<int>;\n"
         << "  var r = 0;\n"
         << "  if (eq(a, b)) r = r + 1;\n"
         << "  if (ne((a, b), (b, a))) r = r + 2;\n"
         << "  if (isInt(a)) r = r + 4;\n"
         << "  return r;\n"
         << "}\n";
    }
    if (Config.CastChains) {
      // §3.3 ad-hoc polymorphism: a query/cast chain over the pool
      // types, fully foldable after monomorphization.
      OS << "def classify<T>(x: T) -> int {\n"
         << "  if (int.?(x)) return int.!(x) % 1000;\n"
         << "  if ((int, int).?(x)) {\n"
         << "    var t = (int, int).!(x);\n"
         << "    return t.0 * 3 - t.1;\n"
         << "  }\n"
         << "  if (((int, int), int).?(x)) {\n"
         << "    var u = ((int, int), int).!(x);\n"
         << "    return u.0.0 + u.0.1 * 2 + u.1;\n"
         << "  }\n"
         << "  if (bool.?(x)) {\n"
         << "    if (bool.!(x)) return 17;\n"
         << "    return 19;\n"
         << "  }\n"
         << "  return 23;\n"
         << "}\n";
    }
  }
  // xorshift-ish LCG; determinism matters, quality does not.
  uint32_t next() {
    State = State * 1664525u + 1013904223u;
    return State >> 8;
  }
  int range(int N) { return (int)(next() % (uint32_t)N); }

  /// The value-type pool: 0 = int, 1 = (int, int), 2 = ((int, int), int).
  static const char *typeName(int T) {
    switch (T) {
    case 0:
      return "int";
    case 1:
      return "(int, int)";
    default:
      return "((int, int), int)";
    }
  }

  /// An int-typed expression of bounded depth over `Vars` (names of
  /// in-scope int variables) and previously generated functions. The
  /// feature-specific cases are only present when their toggle is on.
  std::string intExpr(int Depth) {
    if (Depth <= 0 || range(4) == 0) {
      // Leaf: literal or variable.
      if (!IntVars.empty() && range(2) == 0)
        return IntVars[range((int)IntVars.size())];
      return std::to_string(range(200) - 100);
    }
    // Core arithmetic cases are always available; each enabled feature
    // appends its own cases so selection stays deterministic per
    // (seed, config).
    int NumCases = 6;
    int VirtCase = Config.VirtualDispatch ? NumCases++ : -1;
    int GridCase = Config.NestedTuples ? NumCases++ : -1;
    int HofCase = Config.HigherOrder ? NumCases++ : -1;
    int DeepCase = Config.DeepGenerics ? NumCases++ : -1;
    int OpsCase = Config.OperatorValues ? NumCases++ : -1;
    int CastCase = Config.CastChains ? NumCases++ : -1;
    int Case = range(NumCases);
    if (Case == VirtCase) {
      // Objects + virtual dispatch: allocate a Cell or WeightedCell
      // behind the base type and call the virtual sum().
      const char *Cls = range(2) ? "Cell" : "WeightedCell";
      return std::string("(cellSum(") + Cls + ".new(" +
             intExpr(Depth - 1) + ", (" + intExpr(Depth - 1) + ", " +
             intExpr(Depth - 1) + "))))";
    }
    if (Case == GridCase) {
      // A fresh grid: sum it whole or probe one projected element.
      std::string G = "Grid.new(" + std::to_string(2 + range(3)) +
                      ", ((" + intExpr(Depth - 1) + ", " +
                      intExpr(Depth - 1) + "), " + intExpr(Depth - 1) +
                      "))";
      if (range(2))
        return "(" + G + ".total())";
      int Idx = range(2);
      return "(" + G + ".at(" + intExpr(Depth - 1) + ")." +
             std::to_string(Idx) + ")";
    }
    if (Case == HofCase) {
      // Higher-order: pass a function value (named function, unbound
      // method, or constructor) through the combinator.
      if (Config.VirtualDispatch && range(3) == 0)
        return "(hof(step, cellSum(Cell.new(" + intExpr(Depth - 1) +
               ", (" + intExpr(Depth - 1) + ", 2)))))";
      return "(hof(step, " + intExpr(Depth - 1) + "))";
    }
    if (Case == DeepCase)
      return "(deep3(" + intExpr(Depth - 1) + "))";
    if (Case == OpsCase)
      return "(opsProbe(" + intExpr(Depth - 1) + ", " +
             intExpr(Depth - 1) + "))";
    if (Case == CastCase) {
      switch (range(4)) {
      case 0:
        return "(classify(" + intExpr(Depth - 1) + "))";
      case 1:
        return "(classify((" + intExpr(Depth - 1) + ", " +
               intExpr(Depth - 1) + ")))";
      case 2:
        return "(classify(((" + intExpr(Depth - 1) + ", " +
               intExpr(Depth - 1) + "), " + intExpr(Depth - 1) + ")))";
      default:
        return "(classify(" + boolExpr(Depth - 1) + "))";
      }
    }
    switch (Case) {
    case 0:
      return "(" + intExpr(Depth - 1) + " + " + intExpr(Depth - 1) + ")";
    case 1:
      return "(" + intExpr(Depth - 1) + " - " + intExpr(Depth - 1) + ")";
    case 2:
      return "(" + intExpr(Depth - 1) + " * " + intExpr(Depth - 1) + ")";
    case 3:
      // Guarded division: divisor in [1, 5].
      return "(" + intExpr(Depth - 1) + " / ((" + intExpr(Depth - 1) +
             " % 5 + 5) % 5 + 1))";
    case 4:
      return "(" + boolExpr(Depth - 1) + " ? " + intExpr(Depth - 1) +
             " : " + intExpr(Depth - 1) + ")";
    default: {
      // Tuple round-trip: build and project.
      int Idx = range(2);
      return "((" + intExpr(Depth - 1) + ", " + intExpr(Depth - 1) +
             ")." + std::to_string(Idx) + ")";
    }
    }
  }

  std::string boolExpr(int Depth) {
    if (Depth <= 0 || range(3) == 0)
      return range(2) ? "true" : "false";
    switch (range(4)) {
    case 0:
      return "(" + intExpr(Depth - 1) + " < " + intExpr(Depth - 1) + ")";
    case 1:
      return "(" + intExpr(Depth - 1) + " == " + intExpr(Depth - 1) + ")";
    case 2:
      return "(" + boolExpr(Depth - 1) + " && " + boolExpr(Depth - 1) +
             ")";
    default:
      return "!" + boolExpr(Depth - 1);
    }
  }

  /// An expression of pool type \p T built from int expressions.
  std::string valueExpr(int T, int Depth) {
    switch (T) {
    case 0:
      return intExpr(Depth);
    case 1:
      return "(" + intExpr(Depth) + ", " + intExpr(Depth) + ")";
    default:
      return "((" + intExpr(Depth) + ", " + intExpr(Depth) + "), " +
             intExpr(Depth) + ")";
    }
  }

  /// Collapses a value of pool type \p T (spelled \p Name) to an int.
  static std::string collapse(int T, const std::string &Name) {
    switch (T) {
    case 0:
      return Name;
    case 1:
      return "(" + Name + ".0 + " + Name + ".1)";
    default:
      return "(" + Name + ".0.0 + " + Name + ".0.1 + " + Name + ".1)";
    }
  }

  void genFunction(int Id) {
    int ExprDepth = Config.MaxExprDepth < 1 ? 1 : Config.MaxExprDepth;
    int ParamT = range(3);
    int RetT = range(3);
    FuncParamT.push_back(ParamT);
    FuncRetT.push_back(RetT);
    OS << "def fn" << Id << "(p: " << typeName(ParamT)
       << ", k: int) -> " << typeName(RetT) << " {\n";
    IntVars = {"k", collapse(ParamT, "p")};
    OS << "  var acc = " << intExpr(ExprDepth - 1) << ";\n";
    IntVars.push_back("acc");
    if (Config.Loops) {
      // A bounded loop with a data-dependent body.
      OS << "  for (i = 0; i < " << (1 + range(4)) << "; i = i + 1) {\n";
      OS << "    acc = (acc + " << intExpr(ExprDepth - 1)
         << ") % 100000;\n";
      OS << "  }\n";
    } else {
      OS << "  acc = (acc + " << intExpr(ExprDepth - 1) << ") % 100000;\n";
    }
    if (range(2))
      OS << "  if (" << boolExpr(2) << ") acc = acc - " << range(50)
         << ";\n";
    // Calls to earlier functions keep the call graph acyclic;
    // sometimes through a first-class function value instead.
    if (Id > 0 && range(2)) {
      int Callee = range(Id);
      if (Config.HigherOrder && range(2)) {
        OS << "  var fp = fn" << Callee << ";\n";
        OS << "  var sub = fp(" << valueExpr(FuncParamT[Callee], 1)
           << ", acc % 97);\n";
      } else {
        OS << "  var sub = fn" << Callee << "("
           << valueExpr(FuncParamT[Callee], 1) << ", acc % 97);\n";
      }
      OS << "  acc = (acc + " << collapse(FuncRetT[Callee], "sub")
         << ") % 100000;\n";
    }
    OS << "  return " << valueExpr(RetT, 1) << ";\n";
    OS << "}\n";
    IntVars.clear();
  }

  void genMain(int NumFuncs) {
    OS << "def main() -> int {\n  var total = 0;\n";
    IntVars = {"total"};
    for (int F = 0; F != NumFuncs; ++F) {
      OS << "  var r" << F << " = fn" << F << "("
         << valueExpr(FuncParamT[F], 1) << ", " << range(100) << ");\n";
      OS << "  total = (total + "
         << collapse(FuncRetT[F], "r" + std::to_string(F))
         << ") % 1000000;\n";
    }
    genAnchors();
    OS << "  return total;\n}\n";
  }

  /// One deterministic use of every enabled feature, so a program
  /// exercises each toggled-on construct even when the random
  /// expression cases missed it.
  void genAnchors() {
    auto acc = [&](const std::string &E) {
      OS << "  total = (total + " << E << ") % 1000000;\n";
    };
    if (Config.VirtualDispatch) {
      acc("cellSum(WeightedCell.new(" + std::to_string(range(20)) +
          ", (4, 5)))");
      if (Config.HigherOrder) {
        // Constructor and unbound-method values.
        OS << "  var mkCell = Cell.new;\n";
        OS << "  var unboundSum = Cell.sum;\n";
        acc("mkCell(" + std::to_string(range(9)) + ", (3, 4)).sum()");
        acc("unboundSum(mkCell(1, (2, " + std::to_string(range(9)) +
            ")))");
      }
    }
    if (Config.NestedTuples) {
      OS << "  var grid = Grid.new(" << (3 + range(3))
         << ", ((1, 2), " << range(30) << "));\n";
      acc("grid.total()");
      acc("grid.at(" + std::to_string(range(40)) + ").0");
    }
    if (Config.HigherOrder)
      acc("hof(step, " + std::to_string(range(50)) + ")");
    if (Config.DeepGenerics)
      acc("deep3(" + std::to_string(range(25)) + ")");
    if (Config.OperatorValues)
      acc("opsProbe(" + std::to_string(range(6)) + ", " +
          std::to_string(range(6)) + ")");
    if (Config.CastChains) {
      acc("classify((" + std::to_string(range(30)) + ", 2))");
      acc("classify(" + std::string(range(2) ? "true" : "false") + ")");
      acc("classify(((6, " + std::to_string(range(30)) + "), 8))");
    }
  }

  GenConfig Config;
  uint32_t State;
  std::ostringstream OS;
  std::vector<std::string> IntVars;
  std::vector<int> FuncParamT;
  std::vector<int> FuncRetT;
};

} // namespace

std::string corpus::genRandomProgram(uint32_t Seed,
                                     const GenConfig &Config) {
  ProgramGen Gen(Seed, Config);
  return Gen.run();
}

std::string corpus::genRandomProgram(uint32_t Seed) {
  return genRandomProgram(Seed, GenConfig());
}
