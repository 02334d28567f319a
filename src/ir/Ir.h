//===- ir/Ir.h - Typed three-address IR -------------------------*- C++ -*-===//
///
/// \file
/// The compiler's mid-level IR: a CFG of three-address instructions over
/// virtual registers. One IR serves every stage of the paper's pipeline:
///
/// * Freshly lowered IR is *polymorphic*: functions carry type
///   parameters, call instructions carry type-argument vectors, and
///   tuples are first-class values. The reference interpreter executes
///   this form directly, passing type arguments as invisible parameters
///   (the paper's interpreter strategy, §4.3) and adapting tuple
///   calling conventions dynamically (§4.1).
///
/// * After monomorphization no type parameters remain; after
///   normalization no tuple types remain and functions take/return only
///   scalars (possibly several return values, §4.2). The bytecode
///   emitter requires this normalized form.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_IR_IR_H
#define VIRGIL_IR_IR_H

#include "support/Arena.h"
#include "support/Source.h"
#include "types/TypeStore.h"

#include <memory>
#include <string>
#include <vector>

namespace virgil {

class IrBlock;
class IrFunction;
struct IrClass;
struct IrModule;

/// Virtual register id, local to a function.
using Reg = uint32_t;
constexpr Reg NoReg = ~0u;

enum class Opcode : uint8_t {
  // Constants.
  ConstInt,    ///< Dsts[0] <- IntConst (32-bit wrapped).
  ConstByte,   ///< Dsts[0] <- (byte)IntConst.
  ConstBool,   ///< Dsts[0] <- IntConst != 0.
  ConstNull,   ///< Dsts[0] <- null of type Ty.
  ConstVoid,   ///< Dsts[0] <- ().
  ConstString, ///< Dsts[0] <- fresh Array<byte> copy of string #Index.
  /// Dsts[0] <- the default value of type Ty (0 / false / null / ()).
  /// Needed pre-monomorphization when Ty is a type parameter.
  ConstDefault,
  Move,        ///< Dsts[0] <- Args[0].
  // Integer arithmetic (32-bit wrapping) and comparisons. Comparisons
  // also apply to byte operands.
  IntAdd,
  IntSub,
  IntMul,
  IntDiv, ///< Traps on division by zero.
  IntMod, ///< Traps on division by zero.
  IntNeg,
  IntLt,
  IntLe,
  IntGt,
  IntGe,
  BoolNot,
  BoolAnd, ///< Non-short-circuit and (normalized tuple equality).
  BoolOr,  ///< Non-short-circuit or.
  // Universal equality on values of type TypeOperand (recursive on
  // tuples; reference equality for objects/arrays; function values are
  // equal when they name the same function and the same bound receiver).
  Eq,
  Ne,
  // Tuples (absent after normalization).
  TupleCreate, ///< Dsts[0] <- (Args...); Ty is the tuple type.
  TupleGet,    ///< Dsts[0] <- Args[0].Index.
  // Objects.
  NewObject, ///< Dsts[0] <- new object; TypeOperand = class type.
  FieldGet,  ///< Dsts[0] <- Args[0].field#Index; null-checks Args[0].
  FieldSet,  ///< Args[0].field#Index <- Args[1]; null-checks Args[0].
  NullCheck, ///< Traps if Args[0] is null (used for void-typed fields).
  // Arrays.
  NewArray, ///< Dsts[0] <- new Array (TypeOperand) of length Args[0].
  ArrayGet, ///< Dsts[0] <- Args[0][Args[1]]; null+bounds checked.
  /// Null+bounds check of Args[0][Args[1]] without reading a value;
  /// normalization of accesses to Array<void> (paper §4.2: "arrays of
  /// void require no storage but accesses are dutifully bounds
  /// checked").
  BoundsCheck,
  ArraySet, ///< Args[0][Args[1]] <- Args[2]; null+bounds checked.
  ArrayLen, ///< Dsts[0] <- Args[0].length; null checked.
  // Globals.
  GlobalGet, ///< Dsts[0] <- global #Index.
  GlobalSet, ///< global #Index <- Args[0].
  // Calls. Type arguments (TypeArgs) are the paper's "invisible
  // parameters"; they disappear after monomorphization.
  CallFunc,     ///< Dsts <- Callee(Args...) with TypeArgs.
  CallVirtual,  ///< Dispatch on Args[0] through vtable slot #Index;
                ///< TypeOperand = static receiver class type.
  CallIndirect, ///< Dsts <- Args[0](Args[1..]); Args[0] is a closure.
  CallBuiltin,  ///< System builtin #Index.
  // Function values (paper §2.2). BoundCount() == Args.size(): 0 for an
  // unbound function, 1 for an object method closed over its receiver.
  MakeClosure, ///< Dsts[0] <- closure(Callee, TypeArgs, Args...).
  // Casts and queries. TypeOperand is the target type; the source type
  // is the static type of Args[0].
  TypeCast,  ///< Dsts[0] <- cast; traps on failure.
  TypeQuery, ///< Dsts[0] <- bool.
  // Control flow (block terminators).
  Ret,    ///< Returns Args (0..n values).
  Br,     ///< Jumps to Succ0.
  CondBr, ///< Args[0] ? Succ0 : Succ1.
  Trap,   ///< Aborts execution; Index is a TrapKind.
  /// SSA phi: Dsts[0] <- Args[i] when control arrives from the block's
  /// i-th predecessor (predecessors ordered as ssa::predecessors()
  /// reports them). Exists only *inside* the SSA sandwich in
  /// src/ssa/ — construction places phis, destruction replaces them
  /// with edge copies — so the interpreters, BcPrepare, and the
  /// bytecode emitter never see one; IrVerifier rejects it outside
  /// strict-SSA mode.
  Phi,
};

enum class TrapKind : uint8_t {
  NullDeref,
  Bounds,
  CastFail,
  DivByZero,
  MissingReturn,
  UserError,
  Unreachable,
};

const char *opcodeName(Opcode Op);
const char *trapKindName(TrapKind Kind);
bool isTerminator(Opcode Op);
/// True if the instruction has no side effects and can be removed when
/// its results are unused.
bool isPure(Opcode Op);

/// One three-address instruction.
struct IrInstr {
  Opcode Op;
  SourceLoc Loc;
  /// Result registers (usually 0 or 1; calls may define several after
  /// normalization).
  std::vector<Reg> Dsts;
  /// Operand registers.
  std::vector<Reg> Args;
  /// The value type of the (single) result, or the operand type for Eq/
  /// Ne/Ret-less ops. Null where meaningless.
  Type *Ty = nullptr;
  /// Auxiliary type: class type for NewObject/FieldGet/CallVirtual,
  /// array type for NewArray, target type for casts/queries.
  Type *TypeOperand = nullptr;
  /// Direct callee for CallFunc/MakeClosure.
  IrFunction *Callee = nullptr;
  /// Type arguments for CallFunc/CallVirtual/MakeClosure.
  std::vector<Type *> TypeArgs;
  /// Field index / vtable slot / builtin kind / string-table index /
  /// tuple index / global index / trap kind.
  int64_t IntConst = 0;
  int Index = -1;

  Reg dst() const { return Dsts.empty() ? NoReg : Dsts[0]; }
};

/// A basic block: instructions with a terminator last.
class IrBlock {
public:
  IrBlock(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }

  std::vector<IrInstr *> Instrs;
  IrBlock *Succ0 = nullptr; ///< Br/CondBr-true target.
  IrBlock *Succ1 = nullptr; ///< CondBr-false target.

  IrInstr *terminator() const {
    return Instrs.empty() ? nullptr : Instrs.back();
  }

  /// Scratch dense index: this block's position in its function's
  /// block list as of the last numberBlocks() (or ssa::DomTree::compute).
  /// Trust it only after checking F.Blocks[Pos] == this; a block list
  /// that has not changed since then always numbers the same.
  uint32_t Pos = ~0u;

private:
  uint32_t Id;
};

/// A field in an IrClass layout. The type is expressed in terms of the
/// *leaf* class's own type parameters (parent parameters have been
/// substituted away), so instantiating a class needs only one
/// substitution.
struct IrField {
  std::string Name;
  Type *Ty = nullptr;
};

/// A class as the IR sees it: full field layout and virtual table.
struct IrClass {
  uint32_t Id = 0;
  std::string Name;
  /// The source definition pre-mono; a fresh non-generic ClassDef
  /// (empty TypeParams) for post-mono specializations.
  ClassDef *Def = nullptr;
  IrClass *Parent = nullptr; ///< Superclass or null.
  /// Type arguments this specialization was built with (post-mono).
  std::vector<Type *> MonoArgs;
  std::vector<IrField> Fields;         ///< Inherited-first full layout.
  std::vector<IrFunction *> VTable;    ///< Full virtual table.
  /// The self class type: C<own params> pre-mono; the concrete
  /// instantiation post-mono is identified by Id alone.
  Type *SelfType = nullptr;
  uint32_t Depth = 0; ///< Inheritance depth, for fast subclass tests.
};

/// A function: top-level function, method (receiver is param 0),
/// constructor, constructor wrapper, or synthesized operator.
class IrFunction {
public:
  IrFunction(uint32_t Id, std::string Name)
      : Name(std::move(Name)), Id(Id) {}

  uint32_t id() const { return Id; }
  /// Re-ids the function after specialization sharing compacts the
  /// module's function table (ids must stay table positions).
  void renumber(uint32_t NewId) { Id = NewId; }

  std::string Name;
  /// The paper's invisible type parameters; empty after mono.
  std::vector<TypeParamDef *> TypeParams;
  /// Parameter registers are 0..NumParams-1, typed RegTypes[i].
  uint32_t NumParams = 0;
  /// Return types: exactly one (possibly void) before normalization;
  /// zero or more scalars after.
  std::vector<Type *> RetTypes;
  std::vector<Type *> RegTypes;
  std::vector<IrBlock *> Blocks; ///< Blocks[0] is the entry.
  /// For methods: the class this is a member of, and the vtable slot
  /// (-1 if not virtual).
  IrClass *OwnerClass = nullptr;
  int Slot = -1;
  bool IsCtor = false;
  /// Collapsed source-level function type (including the receiver) and
  /// the same minus the receiver; set by the normalizer so first-class
  /// function casts still see the pre-flattening signature.
  Type *SourceFuncTy = nullptr;
  Type *BoundFuncTy = nullptr;

  /// The collapsed function type (params tupled), for closure values.
  Type *funcType(TypeStore &Types) const {
    std::vector<Type *> Params(RegTypes.begin(),
                               RegTypes.begin() + NumParams);
    Type *Ret = RetTypes.size() == 1
                    ? RetTypes[0]
                    : Types.tuple(RetTypes);
    return Types.func(Types.tuple(Params), Ret);
  }

  Reg newReg(Type *Ty) {
    RegTypes.push_back(Ty);
    return (Reg)(RegTypes.size() - 1);
  }

private:
  uint32_t Id;
};

/// Stamps every block of \p F with its position (IrBlock::Pos).
inline void numberBlocks(const IrFunction &F) {
  for (size_t I = 0; I != F.Blocks.size(); ++I)
    F.Blocks[I]->Pos = (uint32_t)I;
}

/// A structural hash of \p F: parameter, register and return types, and
/// every block's instructions and successor positions (block ids and
/// source locations excluded). Passes compare it before and after a
/// rewrite to report only net changes; equal bodies hash equal, and a
/// collision can at worst make the optimizer skip a revisit.
uint64_t fingerprint(const IrFunction &F);

/// A module-level mutable or immutable value.
struct IrGlobal {
  std::string Name;
  Type *Ty = nullptr;
  int Index = -1;
};

/// A whole program in IR form.
struct IrModule {
  explicit IrModule(TypeStore &Types) : Types(&Types) {}

  TypeStore *Types;
  Arena Nodes;
  std::vector<IrFunction *> Functions;
  std::vector<IrClass *> Classes;
  std::vector<IrGlobal> Globals;
  std::vector<std::string> Strings;
  IrFunction *Main = nullptr;
  IrFunction *Init = nullptr; ///< Runs global initializers.
  bool Monomorphized = false;
  bool Normalized = false;
  /// Specialization sharing has merged identical bodies: function
  /// metadata (Name/Slot/OwnerClass/source types) belongs to the
  /// equivalence representative, and optimizer passes must not run.
  bool Shared = false;

  IrFunction *newFunction(std::string Name) {
    auto *F = Nodes.make<IrFunction>((uint32_t)Functions.size(),
                                     std::move(Name));
    Functions.push_back(F);
    return F;
  }

  IrClass *newClass(std::string Name) {
    auto *C = Nodes.make<IrClass>();
    C->Id = (uint32_t)Classes.size();
    C->Name = std::move(Name);
    Classes.push_back(C);
    return C;
  }

  int internString(const std::string &S) {
    for (size_t I = 0; I != Strings.size(); ++I)
      if (Strings[I] == S)
        return (int)I;
    Strings.push_back(S);
    return (int)Strings.size() - 1;
  }
};

} // namespace virgil

#endif // VIRGIL_IR_IR_H
