//===- ir/Ir.cpp ----------------------------------------------------------===//

#include "ir/Ir.h"

using namespace virgil;

const char *virgil::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::ConstInt:
    return "const.int";
  case Opcode::ConstByte:
    return "const.byte";
  case Opcode::ConstBool:
    return "const.bool";
  case Opcode::ConstNull:
    return "const.null";
  case Opcode::ConstVoid:
    return "const.void";
  case Opcode::ConstString:
    return "const.string";
  case Opcode::ConstDefault:
    return "const.default";
  case Opcode::Move:
    return "move";
  case Opcode::IntAdd:
    return "int.add";
  case Opcode::IntSub:
    return "int.sub";
  case Opcode::IntMul:
    return "int.mul";
  case Opcode::IntDiv:
    return "int.div";
  case Opcode::IntMod:
    return "int.mod";
  case Opcode::IntNeg:
    return "int.neg";
  case Opcode::IntLt:
    return "int.lt";
  case Opcode::IntLe:
    return "int.le";
  case Opcode::IntGt:
    return "int.gt";
  case Opcode::IntGe:
    return "int.ge";
  case Opcode::BoolNot:
    return "bool.not";
  case Opcode::BoolAnd:
    return "bool.and";
  case Opcode::BoolOr:
    return "bool.or";
  case Opcode::Eq:
    return "eq";
  case Opcode::Ne:
    return "ne";
  case Opcode::TupleCreate:
    return "tuple.create";
  case Opcode::TupleGet:
    return "tuple.get";
  case Opcode::NewObject:
    return "new.object";
  case Opcode::FieldGet:
    return "field.get";
  case Opcode::FieldSet:
    return "field.set";
  case Opcode::NullCheck:
    return "null.check";
  case Opcode::NewArray:
    return "new.array";
  case Opcode::ArrayGet:
    return "array.get";
  case Opcode::BoundsCheck:
    return "bounds.check";
  case Opcode::ArraySet:
    return "array.set";
  case Opcode::ArrayLen:
    return "array.len";
  case Opcode::GlobalGet:
    return "global.get";
  case Opcode::GlobalSet:
    return "global.set";
  case Opcode::CallFunc:
    return "call.func";
  case Opcode::CallVirtual:
    return "call.virtual";
  case Opcode::CallIndirect:
    return "call.indirect";
  case Opcode::CallBuiltin:
    return "call.builtin";
  case Opcode::MakeClosure:
    return "make.closure";
  case Opcode::TypeCast:
    return "type.cast";
  case Opcode::TypeQuery:
    return "type.query";
  case Opcode::Ret:
    return "ret";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "cond.br";
  case Opcode::Trap:
    return "trap";
  case Opcode::Phi:
    return "phi";
  }
  return "unknown";
}

const char *virgil::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::NullDeref:
    return "null dereference";
  case TrapKind::Bounds:
    return "array index out of bounds";
  case TrapKind::CastFail:
    return "type cast failed";
  case TrapKind::DivByZero:
    return "division by zero";
  case TrapKind::MissingReturn:
    return "missing return";
  case TrapKind::UserError:
    return "user error";
  case TrapKind::Unreachable:
    return "unreachable code";
  }
  return "unknown trap";
}

bool virgil::isTerminator(Opcode Op) {
  switch (Op) {
  case Opcode::Ret:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Trap:
    return true;
  default:
    return false;
  }
}

bool virgil::isPure(Opcode Op) {
  switch (Op) {
  case Opcode::ConstInt:
  case Opcode::ConstByte:
  case Opcode::ConstBool:
  case Opcode::ConstNull:
  case Opcode::ConstVoid:
  case Opcode::ConstDefault:
  case Opcode::Move:
  case Opcode::IntAdd:
  case Opcode::IntSub:
  case Opcode::IntMul:
  case Opcode::IntNeg:
  case Opcode::IntLt:
  case Opcode::IntLe:
  case Opcode::IntGt:
  case Opcode::IntGe:
  case Opcode::BoolNot:
  case Opcode::BoolAnd:
  case Opcode::BoolOr:
  case Opcode::Eq:
  case Opcode::Ne:
  case Opcode::TupleCreate:
  case Opcode::TupleGet:
  case Opcode::GlobalGet:
  case Opcode::MakeClosure:
  case Opcode::TypeQuery:
  case Opcode::Phi:
    return true;
  // ConstString and NewArray allocate (observable via identity /
  // mutation); div/mod, casts, and memory ops can trap or have effects.
  default:
    return false;
  }
}

uint64_t virgil::fingerprint(const IrFunction &F) {
  // xor-then-multiply by an odd constant is a bijection on H for each
  // word, so any single-word difference always changes the result.
  uint64_t H = 0x243f6a8885a308d3ull;
  auto mix = [&H](uint64_t V) { H = (H ^ V) * 0x9e3779b97f4a7c15ull; };
  auto mixPtr = [&mix](const void *P) { mix((uint64_t)(uintptr_t)P); };

  // Successors hash by position, so a body that is rebuilt with fresh
  // but isomorphic blocks still hashes equal.
  numberBlocks(F);
  auto posOf = [&F](const IrBlock *B) -> uint64_t {
    if (!B)
      return ~0ull;
    return B->Pos < F.Blocks.size() && F.Blocks[B->Pos] == B ? B->Pos
                                                             : ~1ull;
  };

  mix(F.NumParams);
  mix(F.RegTypes.size());
  for (Type *T : F.RegTypes)
    mixPtr(T);
  mix(F.RetTypes.size());
  for (Type *T : F.RetTypes)
    mixPtr(T);
  mix(F.Blocks.size());
  for (const IrBlock *B : F.Blocks) {
    mix(B->Instrs.size());
    for (const IrInstr *I : B->Instrs) {
      mix((uint64_t)I->Op | (uint64_t)I->Dsts.size() << 8 |
          (uint64_t)I->Args.size() << 24 |
          (uint64_t)I->TypeArgs.size() << 40);
      for (Reg R : I->Dsts)
        mix(R);
      for (Reg R : I->Args)
        mix(R);
      mixPtr(I->Ty);
      mixPtr(I->TypeOperand);
      mixPtr(I->Callee);
      for (Type *T : I->TypeArgs)
        mixPtr(T);
      mix((uint64_t)I->IntConst);
      mix((uint64_t)(int64_t)I->Index);
    }
    mix(posOf(B->Succ0));
    mix(posOf(B->Succ1));
  }
  return H;
}
