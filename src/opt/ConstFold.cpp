//===- opt/ConstFold.cpp - Constant, cast, and branch folding -------------===//
///
/// Folds constant arithmetic, statically-decided type casts/queries
/// (using the same three-valued classifier the typechecker uses, §3.3),
/// and conditional branches on constants. The analysis is block-local:
/// registers may be assigned more than once across blocks (the IR is
/// not SSA), so each block starts from an empty constant environment,
/// which is safe.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "types/TypeRelations.h"

#include <map>

using namespace virgil;

namespace {

struct Const {
  bool Known = false;
  bool IsNull = false;
  int64_t V = 0;
};

} // namespace

size_t virgil::foldConstants(IrModule &M, FunctionSpan Fns,
                             OptStats &Stats) {
  TypeRelations Rels(*M.Types);
  size_t Changes = 0;
  for (IrFunction *F : Fns) {
    for (IrBlock *B : F->Blocks) {
      std::map<Reg, Const> Env;
      auto known = [&](Reg R) -> Const {
        auto It = Env.find(R);
        return It == Env.end() ? Const{} : It->second;
      };
      auto set = [&](Reg R, Const C) { Env[R] = C; };
      auto kill = [&](const IrInstr *I) {
        for (Reg D : I->Dsts)
          Env.erase(D);
      };
      auto toConstBool = [&](IrInstr *I, bool V) {
        I->Op = Opcode::ConstBool;
        I->Args.clear();
        I->TypeOperand = nullptr;
        I->Callee = nullptr;
        I->IntConst = V ? 1 : 0;
        I->Ty = M.Types->boolTy();
        set(I->dst(), Const{true, false, V ? 1 : 0});
        ++Changes;
        ++Stats.Folded;
      };
      auto toConstInt = [&](IrInstr *I, int64_t V) {
        I->Op = Opcode::ConstInt;
        I->Args.clear();
        I->IntConst = (int32_t)V;
        set(I->dst(), Const{true, false, (int32_t)V});
        ++Changes;
        ++Stats.Folded;
      };

      for (IrInstr *I : B->Instrs) {
        switch (I->Op) {
        case Opcode::ConstInt:
        case Opcode::ConstByte:
        case Opcode::ConstBool:
          set(I->dst(), Const{true, false, I->IntConst});
          break;
        case Opcode::ConstNull:
          set(I->dst(), Const{true, true, 0});
          break;
        case Opcode::Move: {
          Const C = known(I->Args[0]);
          if (C.Known)
            set(I->dst(), C);
          else
            kill(I);
          break;
        }
        case Opcode::IntAdd:
        case Opcode::IntSub:
        case Opcode::IntMul: {
          Const A = known(I->Args[0]);
          Const Bc = known(I->Args[1]);
          if (A.Known && Bc.Known && !A.IsNull && !Bc.IsNull) {
            int64_t R = I->Op == Opcode::IntAdd   ? A.V + Bc.V
                        : I->Op == Opcode::IntSub ? A.V - Bc.V
                                                  : A.V * Bc.V;
            toConstInt(I, (int32_t)R);
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::IntDiv:
        case Opcode::IntMod: {
          Const A = known(I->Args[0]);
          Const Bc = known(I->Args[1]);
          if (A.Known && Bc.Known && Bc.V != 0) {
            int64_t R = I->Op == Opcode::IntDiv ? A.V / Bc.V : A.V % Bc.V;
            toConstInt(I, (int32_t)R);
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::IntNeg: {
          Const A = known(I->Args[0]);
          if (A.Known)
            toConstInt(I, (int32_t)-(int64_t)A.V);
          else
            kill(I);
          break;
        }
        case Opcode::IntLt:
        case Opcode::IntLe:
        case Opcode::IntGt:
        case Opcode::IntGe: {
          Const A = known(I->Args[0]);
          Const Bc = known(I->Args[1]);
          if (A.Known && Bc.Known) {
            bool R = I->Op == Opcode::IntLt   ? A.V < Bc.V
                     : I->Op == Opcode::IntLe ? A.V <= Bc.V
                     : I->Op == Opcode::IntGt ? A.V > Bc.V
                                              : A.V >= Bc.V;
            toConstBool(I, R);
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::BoolNot: {
          Const A = known(I->Args[0]);
          if (A.Known)
            toConstBool(I, A.V == 0);
          else
            kill(I);
          break;
        }
        case Opcode::BoolAnd:
        case Opcode::BoolOr: {
          Const A = known(I->Args[0]);
          Const Bc = known(I->Args[1]);
          bool IsAnd = I->Op == Opcode::BoolAnd;
          if (A.Known && Bc.Known) {
            toConstBool(I, IsAnd ? (A.V && Bc.V) : (A.V || Bc.V));
          } else if (A.Known || Bc.Known) {
            // One side known: x && true == x; x && false == false.
            Const K = A.Known ? A : Bc;
            Reg Other = A.Known ? I->Args[1] : I->Args[0];
            if ((IsAnd && K.V == 0) || (!IsAnd && K.V != 0)) {
              toConstBool(I, !IsAnd);
            } else {
              I->Op = Opcode::Move;
              I->Args = {Other};
              kill(I);
              ++Changes;
              ++Stats.Folded;
            }
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::Eq:
        case Opcode::Ne: {
          Const A = known(I->Args[0]);
          Const Bc = known(I->Args[1]);
          if (A.Known && Bc.Known && I->TypeOperand &&
              (I->TypeOperand->kind() == TypeKind::Prim || A.IsNull ||
               Bc.IsNull)) {
            bool Equal = A.IsNull || Bc.IsNull ? (A.IsNull && Bc.IsNull)
                                               : A.V == Bc.V;
            toConstBool(I, I->Op == Opcode::Eq ? Equal : !Equal);
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::TypeQuery: {
          // Fold statically-decided queries: after monomorphization the
          // operand types are concrete, so int.?(x: int) is True and
          // int.?(x: string) is False (paper §3.3).
          Type *From = F->RegTypes[I->Args[0]];
          TypeRel Rel = Rels.queryRel(From, I->TypeOperand);
          if (Rel == TypeRel::True)
            toConstBool(I, true);
          else if (Rel == TypeRel::False)
            toConstBool(I, false);
          else {
            // A known-null operand answers false.
            Const A = known(I->Args[0]);
            if (A.Known && A.IsNull)
              toConstBool(I, false);
            else
              kill(I);
          }
          break;
        }
        case Opcode::TypeCast: {
          Type *From = F->RegTypes[I->Args[0]];
          if (From == I->TypeOperand) {
            I->Op = Opcode::Move;
            I->TypeOperand = nullptr;
            kill(I);
            ++Changes;
            ++Stats.Folded;
          } else {
            kill(I);
          }
          break;
        }
        case Opcode::CondBr: {
          Const A = known(I->Args[0]);
          if (A.Known) {
            IrBlock *Target = A.V != 0 ? B->Succ0 : B->Succ1;
            I->Op = Opcode::Br;
            I->Args.clear();
            B->Succ0 = Target;
            B->Succ1 = nullptr;
            ++Changes;
            ++Stats.BranchesFolded;
          }
          break;
        }
        default:
          kill(I);
          break;
        }
      }
    }
  }
  return Changes;
}
