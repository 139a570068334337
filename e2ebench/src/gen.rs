//! The seeded workload generator and the output oracle.
//!
//! Everything a program's output is checked against is computed here from
//! the generated rows alone, never by asking the system under test.

use dbpl_types::Type;
use dbpl_values::{DynValue, Value};
use std::fmt::Write as _;

/// SplitMix64: small, seedable, and identical on every platform, so the
/// same seed gives the same store and the same program sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The type declarations every store is loaded with: the paper's
/// Person / Employee / Student / WorkingStudent hierarchy, related by
/// structural subtyping, plus the Dept records the generalized join
/// pairs with employees on `Empno`.
pub const TYPES: &str = "type Person = {Name: Str}\n\
type Employee = {Name: Str, Empno: Int}\n\
type Student = {Name: Str, Sid: Int}\n\
type WorkingStudent = {Name: Str, Empno: Int, Sid: Int}\n\
type Dept = {Empno: Int, Dname: Str}\n";

/// The four hierarchy bounds `get` rotates over.
pub const BOUNDS: [&str; 4] = ["Person", "Employee", "Student", "WorkingStudent"];

/// Handles the write programs extern to.
pub const HANDLES: usize = 64;

/// Puts per bulk-load program.
const LOAD_CHUNK: usize = 250;

/// One generated row of the heterogeneous store.
#[derive(Debug, Clone, PartialEq)]
pub enum Row {
    /// `{Name}`.
    Person { name: String },
    /// `{Name, Empno}`.
    Employee { name: String, empno: i64 },
    /// `{Name, Sid}`.
    Student { name: String, sid: i64 },
    /// `{Name, Empno, Sid}`.
    WorkingStudent { name: String, empno: i64, sid: i64 },
    /// `{Empno, Dname}`.
    Dept { empno: i64, dname: String },
    /// A bare `Int`: a dynamic no record bound matches.
    Noise(i64),
}

impl Row {
    fn literal(&self) -> String {
        match self {
            Row::Person { name } => format!("{{Name = '{name}'}}"),
            Row::Employee { name, empno } => format!("{{Name = '{name}', Empno = {empno}}}"),
            Row::Student { name, sid } => format!("{{Name = '{name}', Sid = {sid}}}"),
            Row::WorkingStudent { name, empno, sid } => {
                format!("{{Name = '{name}', Empno = {empno}, Sid = {sid}}}")
            }
            Row::Dept { empno, dname } => format!("{{Empno = {empno}, Dname = '{dname}'}}"),
            Row::Noise(n) => n.to_string(),
        }
    }

    /// Does this row conform to the named hierarchy bound (or `Dept`)?
    pub fn is_a(&self, bound: &str) -> bool {
        matches!(
            (bound, self),
            ("Person", Row::Person { .. })
                | ("Person" | "Employee", Row::Employee { .. })
                | ("Person" | "Student", Row::Student { .. })
                | (
                    "Person" | "Employee" | "Student" | "WorkingStudent",
                    Row::WorkingStudent { .. }
                )
                | ("Dept", Row::Dept { .. })
        )
    }

    fn empno(&self) -> Option<i64> {
        match self {
            Row::Employee { empno, .. } | Row::WorkingStudent { empno, .. } => Some(*empno),
            _ => None,
        }
    }
}

/// A generated store and everything the oracle needs to know about it.
#[derive(Debug, Clone)]
pub struct Store {
    /// The rows, in load order.
    pub rows: Vec<Row>,
}

impl Store {
    /// `n` rows in a seeded order: a quarter Person, a quarter Employee,
    /// 15% Student, 10% WorkingStudent, 15% Dept and the rest `Int`
    /// noise. The shares are exact and four Dept rows in five carry an
    /// existing employee's `Empno`, so every seed asks the same amount of
    /// work of `get` and the join; the seed decides the order and which
    /// employees the Dept rows name. Names and employee numbers are
    /// unique.
    pub fn generate(seed: u64, n: usize) -> Store {
        let mut rng = Rng::new(seed, 1);
        let shares = [(0u8, 25), (1, 25), (2, 15), (3, 10), (4, 15)];
        let mut kinds: Vec<u8> = shares
            .iter()
            .flat_map(|&(k, pct)| std::iter::repeat_n(k, n * pct / 100))
            .collect();
        kinds.resize(n, 5);
        for i in (1..n).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let empno = |i: usize| 10_000 + i as i64;
        let empnos: Vec<i64> = (0..n)
            .filter(|&i| kinds[i] == 1 || kinds[i] == 3)
            .map(empno)
            .collect();
        let mut depts = 0;
        let rows = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| match kind {
                0 => Row::Person {
                    name: format!("p{i}"),
                },
                1 => Row::Employee {
                    name: format!("e{i}"),
                    empno: empno(i),
                },
                2 => Row::Student {
                    name: format!("s{i}"),
                    sid: 500_000 + i as i64,
                },
                3 => Row::WorkingStudent {
                    name: format!("w{i}"),
                    empno: empno(i),
                    sid: 500_000 + i as i64,
                },
                4 => {
                    depts += 1;
                    let empno = if depts % 5 != 0 && !empnos.is_empty() {
                        empnos[rng.below(empnos.len() as u64) as usize]
                    } else {
                        900_000 + i as i64
                    };
                    Row::Dept {
                        empno,
                        dname: format!("d{i}"),
                    }
                }
                _ => Row::Noise(rng.below(1_000) as i64),
            })
            .collect();
        Store { rows }
    }

    /// The programs that build the store through `run`: the type
    /// declarations, the rows in chunks of puts, and one program that
    /// gives every handle `Seq = 0`.
    pub fn load_programs(&self) -> Vec<String> {
        let mut progs = vec![TYPES.to_string()];
        for chunk in self.rows.chunks(LOAD_CHUNK) {
            let mut p = String::new();
            for row in chunk {
                let _ = writeln!(p, "put(db, dynamic {})", row.literal());
            }
            progs.push(p);
        }
        let mut init = String::new();
        for h in 0..HANDLES {
            let _ = writeln!(init, "extern('h{h}', dynamic {{Seq = 0, Src = 0}})");
        }
        progs.push(init);
        progs
    }

    /// Rows that `get[bound]` must return.
    pub fn count(&self, bound: &str) -> usize {
        self.rows.iter().filter(|r| r.is_a(bound)).count()
    }

    /// `sum(map(fn(e: Employee) => e.Empno, get[Employee](db)))`.
    pub fn empno_sum(&self) -> i64 {
        self.rows.iter().filter_map(Row::empno).sum()
    }

    /// Rows in the generalized natural join of the Employee and Dept
    /// extents. Names are unique and every Dept row is distinct, so no
    /// joined object subsumes another: the join has one row per
    /// (employee, dept) pair that agree on `Empno`.
    pub fn join_rows(&self) -> usize {
        let empnos: Vec<i64> = self.rows.iter().filter_map(Row::empno).collect();
        self.rows
            .iter()
            .map(|r| match r {
                Row::Dept { empno, .. } => empnos.iter().filter(|e| *e == empno).count(),
                _ => 0,
            })
            .sum()
    }
}

/// What a read program must print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `len(get[BOUNDS[i]](db))`.
    Count(usize),
    /// The sum of every employee's `Empno`.
    EmpnoSum,
    /// `explainJoin[Employee][Dept](...)`.
    Join,
}

impl ReadKind {
    /// The program text.
    pub fn text(self) -> String {
        match self {
            ReadKind::Count(i) => format!("len(get[{}](db))", BOUNDS[i]),
            ReadKind::EmpnoSum => {
                "sum(map(fn(e: Employee) => e.Empno, get[Employee](db)))".to_string()
            }
            ReadKind::Join => {
                "explainJoin[Employee][Dept](get[Employee](db), get[Dept](db))".to_string()
            }
        }
    }

    /// The bounds whose `get` the program evaluates, in order.
    pub fn bounds(self) -> &'static [&'static str] {
        match self {
            ReadKind::Count(i) => std::slice::from_ref(&BOUNDS[i]),
            ReadKind::EmpnoSum => &["Employee"],
            ReadKind::Join => &["Employee", "Dept"],
        }
    }
}

/// The expected output of each read program against one store.
#[derive(Debug, Clone)]
pub struct Oracle {
    counts: [usize; 4],
    sum: i64,
    join_rows: usize,
}

impl Oracle {
    /// Precompute every answer for `store`.
    pub fn new(store: &Store) -> Oracle {
        Oracle {
            counts: BOUNDS.map(|b| store.count(b)),
            sum: store.empno_sum(),
            join_rows: store.join_rows(),
        }
    }

    /// Rows in the join of the Employee and Dept extents.
    pub fn join_rows(&self) -> usize {
        self.join_rows
    }

    /// The answers once Employee records with `empnos` have been added.
    /// The new employee numbers match no Dept row, so the join is
    /// unchanged.
    pub fn with_added(&self, empnos: &[i64]) -> Oracle {
        let mut o = self.clone();
        o.counts[0] += empnos.len();
        o.counts[1] += empnos.len();
        o.sum += empnos.iter().sum::<i64>();
        o
    }

    /// Whether `out` is exactly what `kind` must print.
    pub fn check(&self, kind: ReadKind, out: &[String]) -> bool {
        let [line] = out else { return false };
        match kind {
            ReadKind::Count(i) => *line == self.counts[i].to_string(),
            // `sum` returns a Float, printed with one decimal when whole.
            ReadKind::EmpnoSum => *line == format!("{}.0", self.sum),
            ReadKind::Join => line.contains(&format!(" out={} ", self.join_rows)),
        }
    }
}

/// A committing program: one Employee put and one extern.
#[derive(Debug, Clone)]
pub struct WriteProg {
    /// The program text.
    pub text: String,
    /// The Employee number of the record it puts; its name is `n<seq>`.
    pub empno: i64,
    /// The handle it externs to.
    pub handle: usize,
    /// The `Seq` it externs; unique across the round.
    pub seq: i64,
    /// The `Src` it externs: the writer's id.
    pub src: i64,
}

impl WriteProg {
    /// The program that puts Employee `n<seq>` and externs `seq` and
    /// `src` to `handle`.
    pub fn new(seq: i64, src: i64, handle: usize) -> WriteProg {
        let empno = 2_000_000 + seq;
        let put = Row::Employee {
            name: format!("n{seq}"),
            empno,
        };
        let text = format!(
            "put(db, dynamic {})\nextern('h{handle}', dynamic {{Seq = {seq}, Src = {src}}})",
            put.literal()
        );
        WriteProg {
            text,
            empno,
            handle,
            seq,
            src,
        }
    }

    /// The type and value of the record it puts.
    pub fn put_dynamic(&self) -> (Type, Value) {
        (
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
            Value::record([
                ("Name", Value::Str(format!("n{}", self.seq))),
                ("Empno", Value::Int(self.empno)),
            ]),
        )
    }

    /// The dynamic it externs.
    pub fn extern_dynamic(&self) -> DynValue {
        DynValue::new(
            Type::record([("Seq", Type::Int), ("Src", Type::Int)]),
            Value::record([("Seq", Value::Int(self.seq)), ("Src", Value::Int(self.src))]),
        )
    }
}

/// The program that reads every handle back after a reopen; it prints
/// the list of their `Seq` values.
pub fn intern_all_program() -> String {
    let items: Vec<String> = (0..HANDLES)
        .map(|h| format!("(coerce intern('h{h}') to {{Seq: Int, Src: Int}}).Seq"))
        .collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_store_other_seed_other_store() {
        let a = Store::generate(7, 500);
        assert_eq!(a.rows, Store::generate(7, 500).rows);
        assert_ne!(a.rows, Store::generate(8, 500).rows);
    }

    #[test]
    fn every_seed_gives_the_same_amount_of_work() {
        let (a, b) = (Store::generate(1, 1_000), Store::generate(2, 1_000));
        for bound in BOUNDS.iter().chain(&["Dept"]) {
            assert_eq!(a.count(bound), b.count(bound), "{bound}");
        }
        assert_eq!(a.join_rows(), b.join_rows());
        assert_eq!(a.join_rows(), 120);
    }

    #[test]
    fn write_programs_put_and_extern() {
        let w = WriteProg::new(7, 1, 3);
        assert_eq!(
            w.text,
            "put(db, dynamic {Name = 'n7', Empno = 2000007})\nextern('h3', dynamic {Seq = 7, Src = 1})"
        );
        assert_eq!(w.empno, 2_000_007);
    }

    #[test]
    fn hierarchy_counts_nest() {
        let s = Store::generate(3, 2_000);
        let [p, e, st, ws] = BOUNDS.map(|b| s.count(b));
        assert!(ws > 0 && ws < e && ws < st && e < p && st < p);
        assert!(s.join_rows() > 0);
    }
}
