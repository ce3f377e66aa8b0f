package core

// ilist is an intrusive doubly linked list in insertion order. Each
// element carries one inode per list it can be on, selected by the at
// function, so push and remove are O(1) and allocate nothing. The owner of
// the list provides the locking.
type ilist[T any] struct {
	head, tail *T
	n          int
}

type inode[T any] struct{ prev, next *T }

func (l *ilist[T]) push(x *T, at func(*T) *inode[T]) {
	nd := at(x)
	nd.prev, nd.next = l.tail, nil
	if l.tail != nil {
		at(l.tail).next = x
	} else {
		l.head = x
	}
	l.tail = x
	l.n++
}

// remove takes x off the list; it does nothing if x is not on it (a
// thread can determine before it has been pushed).
func (l *ilist[T]) remove(x *T, at func(*T) *inode[T]) {
	nd := at(x)
	if l.head != x && nd.prev == nil {
		return
	}
	if nd.prev != nil {
		at(nd.prev).next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nil {
		at(nd.next).prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
	l.n--
}
