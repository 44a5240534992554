(* Instructions and block terminators. *)

type binop = Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge
[@@deriving show { with_path = false }, eq, ord]

type rvalue =
  | Use of Operand.t
  | Load of Place.t
  | Addr_of of Place.t
      (** address of a place; [Addr_of (Lvar v)] spills [v] to its stack
          slot, making it reachable through memory *)
  | Binop of binop * Operand.t * Operand.t
[@@deriving show { with_path = false }, eq, ord]

type call_target =
  | Direct of string
      (** call a named function; calling a syscall stub this way is a
          directly-callable syscall use *)
  | Indirect of Operand.t
      (** call through a function pointer value *)
[@@deriving show { with_path = false }, eq, ord]

type t =
  | Assign of Operand.var * rvalue
  | Store of Place.t * Operand.t
  | Call of { dst : Operand.var option; target : call_target; args : Operand.t list }
[@@deriving show { with_path = false }, eq, ord]

type terminator =
  | Jump of string
  | Branch of Operand.t * string * string  (** non-zero => first label *)
  | Ret of Operand.t option
  | Halt                                   (** program exit *)
[@@deriving show { with_path = false }, eq, ord]

let rvalue_operands = function
  | Use op -> [ op ]
  | Load p -> Place.operands p
  | Addr_of p -> Place.operands p
  | Binop (_, a, b) -> [ a; b ]

(** All operands read by an instruction. *)
let operands = function
  | Assign (_, rv) -> rvalue_operands rv
  | Store (p, v) -> v :: Place.operands p
  | Call { target; args; _ } ->
    let tgt = match target with Direct _ -> [] | Indirect op -> [ op ] in
    tgt @ args

(** The variable defined by an instruction, if any. *)
let def = function
  | Assign (v, _) -> Some v
  | Store _ -> None
  | Call { dst; _ } -> dst

let is_call = function Call _ -> true | Assign _ | Store _ -> false

(* Inlined into the interpreter, so each comparison arm yields its
   constant directly: an arm that called a closure would keep the
   result boxed. *)
let[@inline] eval_binop op (a : int64) (b : int64) : int64 =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then 0L else div a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int b land 63)
  | Shr -> shift_right_logical a (to_int b land 63)
  | Eq -> if equal a b then 1L else 0L
  | Ne -> if equal a b then 0L else 1L
  | Lt -> if compare a b < 0 then 1L else 0L
  | Le -> if compare a b <= 0 then 1L else 0L
  | Gt -> if compare a b > 0 then 1L else 0L
  | Ge -> if compare a b >= 0 then 1L else 0L
