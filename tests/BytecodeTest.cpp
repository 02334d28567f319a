//===- tests/BytecodeTest.cpp - Bytecode emitter unit tests ----------------===//
///
/// Structural properties of emitted bytecode: slot kinds follow static
/// types, jumps stay in range, call descriptors are consistent, and
/// the §4 invariants (no tuple ops, statically-decided casts become
/// moves/traps/consts) hold at the instruction level.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vm/Bytecode.h"

using namespace virgil;
using namespace virgil::testing;

/// A program touching classes, virtual dispatch, generics, tuples,
/// arrays-of-tuples, strings, and first-class functions (defined at the
/// bottom of this file).
std::string corpus_like();

namespace {

const BcFunction *findBc(BcModule &M, const std::string &Name) {
  for (const BcFunction &F : M.Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

TEST(BytecodeTest, SlotKindsFollowStaticTypes) {
  auto P = compileOk(R"(
class K { var v: int; new(v) { } }
def probe(i: int, b: bool, y: byte, k: K, a: Array<int>,
          f: int -> int) -> int { return i; }
def id(x: int) -> int { return x; }
// Keep probe reachable and un-inlined: called only through a closure
// stored in a global, it survives dead-function elimination.
var probeFn: (int, bool, byte, K, Array<int>, int -> int) -> int = probe;
def main() -> int {
  return probeFn(1, true, 'a', K.new(1), Array<int>.new(1), id);
}
)");
  const BcFunction *F = findBc(P->bytecode(), "probe");
  ASSERT_NE(F, nullptr);
  ASSERT_GE(F->NumParams, 6u);
  EXPECT_EQ(F->RegKinds[0], SlotKind::Scalar);  // int
  EXPECT_EQ(F->RegKinds[1], SlotKind::Scalar);  // bool
  EXPECT_EQ(F->RegKinds[2], SlotKind::Scalar);  // byte
  EXPECT_EQ(F->RegKinds[3], SlotKind::Ref);     // K
  EXPECT_EQ(F->RegKinds[4], SlotKind::Ref);     // Array<int>
  EXPECT_EQ(F->RegKinds[5], SlotKind::Closure); // int -> int
}

TEST(BytecodeTest, JumpsStayInRangeAndDescsAreConsistent) {
  // Structural audit over a nontrivial program's full bytecode.
  auto P = compileOk(corpus_like());
  BcModule &M = P->bytecode();
  for (const BcFunction &F : M.Functions) {
    for (const BcInstr &I : F.Code) {
      switch (I.Op) {
      case BcOp::Jmp:
      case BcOp::JmpIfFalse:
        EXPECT_LT((size_t)I.Imm, F.Code.size()) << F.Name;
        break;
      case BcOp::CallF:
        EXPECT_LT((size_t)I.Imm, M.Functions.size()) << F.Name;
        [[fallthrough]];
      case BcOp::CallV:
      case BcOp::CallInd:
      case BcOp::CallB:
      case BcOp::RetOp: {
        ASSERT_LT((size_t)I.A, F.Descs.size()) << F.Name;
        const CallDesc &D = F.Descs[I.A];
        for (uint16_t R : D.Args)
          EXPECT_LT(R, F.NumRegs) << F.Name;
        for (uint16_t R : D.Dsts)
          EXPECT_LT(R, F.NumRegs) << F.Name;
        if (I.Op == BcOp::RetOp)
          EXPECT_EQ(D.Args.size(), F.NumRets) << F.Name;
        break;
      }
      case BcOp::NewObj:
      case BcOp::CastClass:
      case BcOp::QueryClass:
        EXPECT_LT((size_t)I.Imm, M.Classes.size()) << F.Name;
        break;
      case BcOp::CastFunc:
      case BcOp::QueryFunc:
        EXPECT_LT((size_t)I.Imm, M.TypeTable.size()) << F.Name;
        break;
      case BcOp::ConstStr:
        EXPECT_LT((size_t)I.Imm, M.Strings.size()) << F.Name;
        break;
      default:
        break;
      }
    }
  }

  // Direct calls must match the callee's parameter count exactly (no
  // dynamic adaptation in compiled code, §4.2).
  for (const BcFunction &F : M.Functions) {
    for (const BcInstr &I : F.Code) {
      if (I.Op != BcOp::CallF)
        continue;
      const BcFunction &G = M.Functions[I.Imm];
      EXPECT_EQ(F.Descs[I.A].Args.size(), G.NumParams)
          << F.Name << " -> " << G.Name;
      EXPECT_EQ(F.Descs[I.A].Dsts.size(), G.NumRets);
    }
  }
}

TEST(BytecodeTest, ClassTablesMirrorHierarchy) {
  auto P = compileOk(R"(
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def main() -> int {
  var x: A = B.new();
  return x.m();
}
)");
  BcModule &M = P->bytecode();
  int AId = -1, BId = -1;
  for (size_t I = 0; I != M.Classes.size(); ++I) {
    if (M.Classes[I].Name == "A")
      AId = (int)I;
    if (M.Classes[I].Name == "B")
      BId = (int)I;
  }
  ASSERT_GE(AId, 0);
  ASSERT_GE(BId, 0);
  EXPECT_EQ(M.Classes[BId].ParentId, AId);
  EXPECT_EQ(M.Classes[AId].ParentId, -1);
  ASSERT_EQ(M.Classes[AId].VTable.size(), 1u);
  ASSERT_EQ(M.Classes[BId].VTable.size(), 1u);
  EXPECT_NE(M.Classes[AId].VTable[0], M.Classes[BId].VTable[0]);
}

TEST(BytecodeTest, SourceTypesPreservedForFunctionCasts) {
  auto P = compileOk(R"(
def f(a: int, b: int) -> int { return a + b; }
def g(t: (int, int)) -> int { return t.0; }
// Globals, not locals: closures that escape keep f and g alive (local
// closures are flattened to direct calls, inlined, and then dead).
var x: (int, int) -> int = f;
var y: (int, int) -> int = g;
def main() -> int {
  return x(1, 2) + y(3, 4);
}
)");
  BcModule &M = P->bytecode();
  const BcFunction *F = findBc(M, "f");
  const BcFunction *G = findBc(M, "g");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(G, nullptr);
  // The degenerate tuple rules make both source types identical.
  ASSERT_NE(F->SourceFuncTy, nullptr);
  EXPECT_EQ(F->SourceFuncTy, G->SourceFuncTy);
  EXPECT_EQ(F->SourceFuncTy->toString(), "(int, int) -> int");
}

TEST(BytecodeTest, ClosurePackingRoundTrips) {
  uint64_t C1 = packClosure(0, 0, false);
  EXPECT_NE(C1, 0u) << "func id 0 unbound must not collide with null";
  EXPECT_EQ(closureFuncId(C1), 0);
  EXPECT_FALSE(closureIsBound(C1));
  uint64_t C2 = packClosure(12345, 0xABCDEF, true);
  EXPECT_EQ(closureFuncId(C2), 12345);
  EXPECT_TRUE(closureIsBound(C2));
  EXPECT_EQ(closureBoundRef(C2), 0xABCDEFu);
  // Equality semantics: same function + same receiver = same bits.
  EXPECT_EQ(packClosure(7, 42, true), packClosure(7, 42, true));
  EXPECT_NE(packClosure(7, 42, true), packClosure(7, 43, true));
  EXPECT_NE(packClosure(7, 0, false), packClosure(8, 0, false));
}

TEST(BytecodeTest, DebugPrinterNamesOps) {
  auto P = compileOk("def main() -> int { return 40 + 2; }");
  const BcFunction *Main = findBc(P->bytecode(), "main");
  ASSERT_NE(Main, nullptr);
  std::string S = printBcFunction(*Main);
  EXPECT_NE(S.find("bcfunc main"), std::string::npos);
  EXPECT_NE(S.find("ret"), std::string::npos);
}

} // namespace

// Out-of-line to keep the audit test readable.
static std::string corpus_like_impl() {
  return R"(
class Shape { def area() -> int; }
class Rect extends Shape {
  var w: int;
  var h: int;
  new(w, h) { }
  def area() -> int { return w * h; }
}
class Circle extends Shape {
  var r: int;
  new(r) { }
  def area() -> int { return 3 * r * r; }
}
def sum(shapes: Array<Shape>) -> int {
  var acc = 0;
  for (i = 0; i < shapes.length; i = i + 1) acc = acc + shapes[i].area();
  return acc;
}
def classify<T>(x: T) -> int {
  if (int.?(x)) return 1;
  if ((int, int).?(x)) return 2;
  return 0;
}
def main() -> int {
  var shapes = Array<Shape>.new(2);
  shapes[0] = Rect.new(2, 3);
  shapes[1] = Circle.new(2);
  var f = sum;
  var pairs = Array<(int, int)>.new(2);
  pairs[0] = (1, 2);
  System.puts("area ");
  System.puti(f(shapes));
  System.ln();
  return f(shapes) + classify(5) + classify((1, 2)) + pairs[0].1;
}
)";
}

std::string corpus_like() { return corpus_like_impl(); }
