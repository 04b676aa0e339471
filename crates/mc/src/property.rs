//! Named predicates over states.

use std::fmt;

type CheckFn<S> = Box<dyn Fn(&S) -> Option<&'static str> + Send + Sync>;

/// A named predicate expected to hold in every reachable state.
///
/// A property may bundle several sub-checks: the checking closure returns
/// `None` when the state is fine and `Some(sub_name)` naming the first
/// violated sub-check otherwise. Bundling lets expensive shared analysis
/// (e.g. a heap reconstruction) happen once per state.
///
/// Checking closures must be `Send + Sync`: with
/// [`Strategy::Bfs`](crate::Strategy::Bfs) at more than one thread, properties are evaluated
/// concurrently on newly discovered states. Observer properties that
/// accumulate statistics should guard their state with a `Mutex` (and be
/// run single-threaded when exact per-state visit counts matter).
pub struct Property<S> {
    name: &'static str,
    check: CheckFn<S>,
}

impl<S> Property<S> {
    /// Creates a property from a name and a boolean predicate.
    pub fn new(name: &'static str, check: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Property {
            name,
            check: Box::new(move |s| if check(s) { None } else { Some(name) }),
        }
    }

    /// Creates a bundled property: the closure returns the name of the
    /// first violated sub-check, or `None` if all hold.
    pub fn labeled(
        name: &'static str,
        check: impl Fn(&S) -> Option<&'static str> + Send + Sync + 'static,
    ) -> Self {
        Property {
            name,
            check: Box::new(check),
        }
    }

    /// The property's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Evaluates the property on `state`.
    pub fn holds(&self, state: &S) -> bool {
        (self.check)(state).is_none()
    }

    /// Evaluates the property, returning the violated sub-check's name.
    pub fn violation(&self, state: &S) -> Option<&'static str> {
        (self.check)(state)
    }
}

impl<S> fmt::Debug for Property<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Property({})", self.name)
    }
}

/// Evaluates `properties` in order, returning the first violation.
pub(crate) fn first_violation<S>(properties: &[Property<S>], state: &S) -> Option<&'static str> {
    properties.iter().find_map(|p| p.violation(state))
}
